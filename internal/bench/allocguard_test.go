package bench

// Allocation guards for the simulator's hot paths: the cached GET/PUT
// fast path, the reliable-layer send/ack path, and the coalescer
// flush. Each guard measures the *marginal* host allocations of one
// simulated operation — AllocsPerRun over a whole run with K ops and
// again with 2K ops, difference divided by K — so runtime construction
// and warmup cancel out. The bounds are deliberately snug: if a future
// change adds per-op allocations (dropping a free-list, reintroducing
// fmt.Sprintf in a hot loop), these fail before a profile has to catch
// it.

import (
	"encoding/binary"
	"runtime"
	"testing"

	"xlupc/internal/core"
	"xlupc/internal/dis"
	"xlupc/internal/kv"
	"xlupc/internal/pool"
	"xlupc/internal/sim"
	"xlupc/internal/transport"
)

// skipPoison skips an allocation guard in the poison build, which
// never reuses a pooled record and so allocates for every one.
func skipPoison(t *testing.T) {
	if pool.Poison {
		t.Skip("the xlupcpoison build allocates every pooled record afresh")
	}
}

// allocsForOps runs the cached GET/PUT loop with ops operations and
// returns total host allocations for the whole run.
func allocsForOps(t *testing.T, ops int, cfgFn func() core.Config, body func(th *core.Thread, ops int)) float64 {
	t.Helper()
	return testing.AllocsPerRun(3, func() {
		rt, err := core.NewRuntime(cfgFn())
		if err != nil {
			panic(err)
		}
		if _, err := rt.Run(func(th *core.Thread) { body(th, ops) }); err != nil {
			panic(err)
		}
	})
}

// marginal returns host allocations per op via the K / 2K difference.
func marginal(t *testing.T, k int, cfgFn func() core.Config, body func(th *core.Thread, ops int)) float64 {
	t.Helper()
	a1 := allocsForOps(t, k, cfgFn, body)
	a2 := allocsForOps(t, 2*k, cfgFn, body)
	return (a2 - a1) / float64(k)
}

func guardCfg(mut func(*core.Config)) func() core.Config {
	return func() core.Config {
		cfg := core.Config{
			Threads: 2, Nodes: 2,
			Profile: transport.GM(),
			Cache:   core.DefaultCache(),
			Seed:    9,
		}
		if mut != nil {
			mut(&cfg)
		}
		return cfg
	}
}

// getPutBody warms the address cache, then runs ops rounds of the
// blocking fast path: one remote GetUint64 plus one remote PutUint64
// with a fence every 8 rounds.
func getPutBody(th *core.Thread, ops int) {
	a := th.AllAlloc("guard", 512, 8, 256)
	th.Barrier()
	if th.ID() == 0 {
		r := a.At(256) // node 1's block
		th.PutUint64(r, 7)
		th.Fence()
		_ = th.GetUint64(r) // cache now warm for both directions
		for i := 0; i < ops; i++ {
			v := th.GetUint64(r)
			th.PutUint64(r, v+1)
			if i%8 == 7 {
				th.Fence()
			}
		}
		th.Fence()
	}
	th.Barrier()
}

// TestAllocGuardGetPut bounds the cached GET/PUT fast path. Each round
// is one GET and one PUT (two ops); the bound is per round.
func TestAllocGuardGetPut(t *testing.T) {
	skipPoison(t)
	per := marginal(t, 256, guardCfg(nil), getPutBody)
	t.Logf("GET+PUT round: %.2f allocs", per)
	// One cached round is RDMA both ways: pooled dma descriptors, w64
	// staging, pooled packets and bounce buffer. What is left, 4.00, is
	// the PUT's: its remote completion, the watcher that retires it under
	// the fence, and their waiter records.
	if per > 4.05 {
		t.Errorf("cached GET/PUT round allocates %.2f (> 4.05): hot path regressed", per)
	}
}

// bulkPutBody has thread 0 write size bytes into node 1's block ops
// times, one fenced PutBulk each, after one PUT that warms the address
// cache when there is one.
func bulkPutBody(size int) func(th *core.Thread, ops int) {
	return func(th *core.Thread, ops int) {
		a := th.AllAlloc("guard", 2*int64(size), 1, int64(size))
		th.Barrier()
		if th.ID() == 0 {
			src := make([]byte, size)
			r := a.At(int64(size)) // node 1's block
			for i := 0; i <= ops; i++ {
				th.PutBulk(r, src)
				th.Fence()
			}
		}
		th.Barrier()
	}
}

// TestAllocGuardBulkPut bounds a bulk PUT by the 8-byte one: a cached
// 64 KiB RDMA PUT and an uncached 1 MiB rendezvous PUT each travel in a
// bounce buffer, which pool.Bytes recycles up to 4 MiB, so neither
// allocates more bytes per operation than the 8-byte cached PUT row
// (pool growth aside), and the cached one no more allocations either.
// The rendezvous PUT's own round trip adds two allocations, its
// request-to-send's completion waiter and boxed answer. The tree whose
// largest class was 4 KiB read one allocation more on both rows, and
// the whole payload in bytes.
func TestAllocGuardBulkPut(t *testing.T) {
	skipPoison(t)
	cached := guardCfg(nil)
	uncached := guardCfg(func(c *core.Config) { c.Cache = core.NoCache() })
	small, smallBytes := marginal(t, 64, cached, bulkPutBody(8)), marginalBytes(64, cached, bulkPutBody(8))
	t.Logf("8-byte cached RDMA PUT: %.2f allocs, %.1f bytes", small, smallBytes)
	for _, c := range []struct {
		name  string
		cfg   func() core.Config
		size  int
		round float64 // allocations of its own beyond the 8-byte row's
	}{
		{"64 KiB cached RDMA PUT", cached, 64 << 10, 0},
		{"1 MiB uncached rendezvous PUT", uncached, 1 << 20, 2},
	} {
		per, bytes := marginal(t, 64, c.cfg, bulkPutBody(c.size)), marginalBytes(64, c.cfg, bulkPutBody(c.size))
		t.Logf("%s: %.2f allocs, %.1f bytes", c.name, per, bytes)
		if per > small+c.round+0.05 {
			t.Errorf("%s allocates %.2f (> %.2f): its bounce buffer is not recycled", c.name, per, small+c.round)
		}
		if bytes > smallBytes+64 {
			t.Errorf("%s allocates %.1f bytes (> the 8-byte PUT's %.1f + 64): its bounce buffer is not recycled", c.name, bytes, smallBytes)
		}
	}
}

// TestAllocGuardReliable bounds the reliable-layer send/ack path: the
// same fast path over a Rel-enabled (lossless) wire, so every packet
// takes the sequence/ack/retransmit-arming code.
func TestAllocGuardReliable(t *testing.T) {
	skipPoison(t)
	per := marginal(t, 256, guardCfg(func(c *core.Config) {
		rel := transport.DefaultRelConfig()
		c.Rel = &rel
	}), getPutBody)
	t.Logf("reliable GET+PUT round: %.2f allocs", per)
	// The reliable layer adds nothing per packet: packets and ACKs are
	// pooled records with their steps bound once, timers are embedded in
	// the packets, and the wire copies carry their headers by value. The
	// tree that allocated an envelope, a packet, a timer, an ACK and four
	// closures per packet read 30.02 here; the bound is the unreliable
	// round's 4.00 plus pool growth.
	if per > 4.5 {
		t.Errorf("reliable GET/PUT round allocates %.2f (> 4.5): send/ack path regressed", per)
	}
}

// coalesceBody issues batches of split-phase NbGets that the coalescer
// buffers and flushes, retiring each batch with SyncAll.
func coalesceBody(th *core.Thread, ops int) {
	a := th.AllAlloc("guard", 512, 8, 256)
	th.Barrier()
	if th.ID() == 0 {
		var bufs [8][8]byte
		r := a.At(256)
		_ = th.GetUint64(r) // warm the cache
		for i := 0; i < ops; i++ {
			for j := range bufs {
				th.NbGet(bufs[j][:], a.At(256+int64((i+j)%256)))
			}
			th.SyncAll()
		}
	}
	th.Barrier()
}

// atomicBody warms the address cache, then runs ops rounds of the
// blocking remote-atomic fast path: one FetchAdd executed at the
// target NIC per round.
func atomicBody(th *core.Thread, ops int) {
	a := th.AllAlloc("guard", 512, 8, 256)
	th.Barrier()
	if th.ID() == 0 {
		r := a.At(256)        // node 1's block
		_ = th.FetchAdd(r, 1) // warm: first op takes the AM path and pins the base
		for i := 0; i < ops; i++ {
			_ = th.FetchAdd(r, 1)
		}
	}
	th.Barrier()
}

// TestAllocGuardAtomic bounds the cached remote-atomic fast path. One
// FetchAdd is a single RDMA atomic round trip — pooled descriptor,
// pooled packets, w64 staging — and allocates nothing: with no hub
// attached not even the op label of xlupc_atomic_ops_total is built.
func TestAllocGuardAtomic(t *testing.T) {
	skipPoison(t)
	per := marginal(t, 256, guardCfg(nil), atomicBody)
	t.Logf("cached FetchAdd: %.2f allocs", per)
	if per > 0.05 {
		t.Errorf("cached FetchAdd allocates %.2f (> 0.05): atomic hot path regressed", per)
	}
}

// amBody runs ops AM round trips without an address cache: a blocking
// eager GET, or an active-message FetchAdd.
func amBody(atomic bool) func(th *core.Thread, ops int) {
	return func(th *core.Thread, ops int) {
		a := th.AllAlloc("guard", 512, 8, 256)
		th.Barrier()
		if th.ID() == 0 {
			r := a.At(256) // node 1's block
			th.PutUint64(r, 1000)
			th.Fence()
			for i := 0; i < ops; i++ {
				if atomic {
					_ = th.FetchAdd(r, 1) // previous values above 255: boxed
				} else {
					_ = th.GetUint64(r)
				}
			}
		}
		th.Barrier()
	}
}

// marginalBytes is marginal for host bytes allocated per op. Each run
// size is read three times and the least reading kept: an allocation
// from outside the run (the race detector's, the runtime's) only ever
// adds to a reading, so one landing in a window can neither fail a
// guard nor hide a per-op regression, which shows in every reading.
func marginalBytes(k int, cfgFn func() core.Config, body func(th *core.Thread, ops int)) float64 {
	run := func(ops int) uint64 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		rt, err := core.NewRuntime(cfgFn())
		if err != nil {
			panic(err)
		}
		if _, err := rt.Run(func(th *core.Thread) { body(th, ops) }); err != nil {
			panic(err)
		}
		runtime.ReadMemStats(&m1)
		return m1.TotalAlloc - m0.TotalAlloc
	}
	least := func(ops int) uint64 {
		return min(run(ops), run(ops), run(ops))
	}
	run(k) // grow the pools' backing arrays once
	return (float64(least(2*k)) - float64(least(k))) / float64(k)
}

// TestAllocGuardAM bounds an active-message round trip, the path every
// remote access takes without an address cache: the request header, the
// completion it is answered through, the answer's header and the eager
// GET's bounce buffer are all pooled, each put back by the step that
// reads it last, so only an atomic's boxed previous value is left. The
// tree that allocated the headers read 3.00 allocations and 136 (GET) or
// 152 (FetchAdd) bytes here. (The byte bounds are the 8-byte value plus
// 12: the race detector's build reads 8 higher, pool growth up to 4.)
func TestAllocGuardAM(t *testing.T) {
	skipPoison(t)
	noCache := guardCfg(func(c *core.Config) { c.Cache = core.NoCache() })
	for _, c := range []struct {
		name        string
		body        func(th *core.Thread, ops int)
		count, size float64
	}{
		{"uncached GET", amBody(false), 0.05, 12},
		{"AM FetchAdd", amBody(true), 1.05, 8 + 12},
	} {
		per, bytes := marginal(t, 256, noCache, c.body), marginalBytes(256, noCache, c.body)
		t.Logf("%s: %.2f allocs, %.1f bytes", c.name, per, bytes)
		if per > c.count {
			t.Errorf("%s allocates %.2f (> %.2f): the AM round trip regressed", c.name, per, c.count)
		}
		if bytes > c.size {
			t.Errorf("%s allocates %.1f bytes (> %.0f): a header of the AM round trip grew", c.name, bytes, c.size)
		}
	}
}

// guardUser is the user-AM handler id of the round-trip guard.
const guardUser core.UserHandlerID = 0

// guardAM is the round-trip guard's handler: it sleeps, reads the
// anchor's first word, writes it back incremented, and replies with it.
// Its state is a record of its own with its steps bound once, so what
// the guard counts is the dispatch machinery's.
type guardAM struct {
	c                    *core.UserCtx
	reply                func([]byte)
	word                 [8]byte
	slept, read, written func()
}

func newGuardAM() *guardAM {
	g := &guardAM{}
	g.slept = func() { g.c.ReadLocalC(0, g.word[:], g.read) }
	g.read = func() {
		binary.LittleEndian.PutUint64(g.word[:], binary.LittleEndian.Uint64(g.word[:])+1)
		g.c.WriteLocalC(0, g.word[:], g.written)
	}
	g.written = func() { g.reply(g.word[:]) }
	return g
}

func (g *guardAM) serve(c *core.UserCtx, reply func([]byte)) {
	g.c, g.reply = c, reply
	c.SleepC(50*sim.Ns, g.slept)
}

// userAMBodyC runs ops user-AM round trips from thread 0 to node 1. Its
// loop is one closure per thread, so what the guard counts is the round
// trip's.
func userAMBodyC(ops int) core.ContBody {
	return func(th *core.Thread, done func()) {
		th.AllAllocC("guard", 512, 8, 256, func(a *core.SharedArray) {
			th.BarrierC(func() {
				if th.ID() != 0 {
					th.BarrierC(done)
					return
				}
				var reply [8]byte
				i := 0
				var next func(int)
				next = func(int) {
					if i == ops {
						th.BarrierC(done)
						return
					}
					i++
					th.CallAMC(a, 1, guardUser, 0, 0, 8, reply[:], "user", next)
				}
				next(0)
			})
		})
	}
}

// TestAllocGuardUserAM bounds a user-AM round trip to a handler that
// sleeps, reads and writes locally: nothing per message on either side.
// The tree whose dispatchers were processes read 3.00 here (it built a
// handler context per message), the one that allocated the request
// record and the answer's header 2.00; a closure or a record built per
// message now fails it.
func TestAllocGuardUserAM(t *testing.T) {
	skipPoison(t)
	cfg := guardCfg(func(c *core.Config) { c.Cache = core.NoCache() })
	run := func(ops int) float64 {
		return testing.AllocsPerRun(3, func() {
			rt, err := core.NewRuntime(cfg())
			if err != nil {
				panic(err)
			}
			rt.HandleUser(guardUser, newGuardAM().serve)
			if _, err := rt.RunCont(userAMBodyC(ops)); err != nil {
				panic(err)
			}
		})
	}
	const k = 256
	per := (run(2*k) - run(k)) / k
	t.Logf("user AM round trip: %.2f allocs", per)
	if per > 0.05 {
		t.Errorf("user AM round trip allocates %.2f (> 0.05): the round trip regressed", per)
	}
}

// TestAllocGuardCoalesce bounds the coalescer flush path. Each round
// is 8 coalesced NbGets plus a SyncAll; the bound is per round.
func TestAllocGuardCoalesce(t *testing.T) {
	skipPoison(t)
	per := marginal(t, 64, guardCfg(func(c *core.Config) {
		cc := transport.DefaultCoalConfig()
		c.Coalesce = &cc
	}), coalesceBody)
	t.Logf("coalesced 8xNbGet+SyncAll round: %.2f allocs", per)
	if per > 64 {
		t.Errorf("coalesced round allocates %.2f (> 64): flush path regressed", per)
	}
}

// barrierBody runs ops whole-machine barriers (every thread takes part).
func barrierBody(th *core.Thread, ops int) {
	for i := 0; i < ops; i++ {
		th.Barrier()
	}
}

// TestAllocGuardBarrier bounds a barrier: per round, 8 threads on 4
// nodes each fence, combine in shared memory and — the representatives
// — run two dissemination rounds. Measured 32: what the protocol sends
// and waits on (message headers, round and release completions, their
// waiter lists); it read 44 while every wait on a completion reused
// under another name built its diagnostic string afresh. The ladder
// itself — fence, SyncAll, the steps between the waits — adds nothing
// per thread, and the bound leaves it no room to start.
func TestAllocGuardBarrier(t *testing.T) {
	skipPoison(t)
	per := marginal(t, 64, guardCfg(func(c *core.Config) { c.Threads, c.Nodes = 8, 4 }), barrierBody)
	t.Logf("barrier, 8 threads / 4 nodes: %.2f allocs", per)
	if per > 34 {
		t.Errorf("barrier allocates %.2f (> 34): the barrier ladder regressed", per)
	}
}

// computeBody alternates two threads of one node on its CPU.
func computeBody(th *core.Thread, ops int) {
	for i := 0; i < ops; i++ {
		th.Compute(100 * sim.Ns)
	}
}

// TestAllocGuardCompute bounds Compute — acquire a core, hold it,
// release it — which allocates nothing, contended or not.
func TestAllocGuardCompute(t *testing.T) {
	skipPoison(t)
	per := marginal(t, 256, guardCfg(func(c *core.Config) {
		c.Threads, c.Nodes = 4, 1
		p := *c.Profile
		p.Cores = 2 // four threads on two cores: half the acquisitions queue
		c.Profile = &p
	}), computeBody)
	t.Logf("Compute, 4 threads on 2 cores: %.2f allocs", per)
	if per > 0.1 {
		t.Errorf("Compute allocates %.2f (> 0.1): the compute ladder regressed", per)
	}
}

// kvGuardKey is a uniform key stream over the preloaded population.
func kvGuardKey(tid, i int) uint64 {
	return 1 + gupsHash(uint64(tid)<<32|uint64(i))%kvGuardKeys
}

const kvGuardKeys = 4096

// kvBody preloads a table, then runs ops Gets (or Puts) of uniform keys
// on every thread through the blocking methods.
func kvBody(put bool) func(th *core.Thread, ops int) {
	return func(th *core.Thread, ops int) {
		tb := kv.New(th, kv.Options{Name: "kv", NumKeys: kvGuardKeys})
		kv.Preload(th, tb, kvGuardKeys)
		for i := 0; i < ops; i++ {
			if key := kvGuardKey(th.ID(), i); put {
				tb.Put(th, key, uint64(i))
			} else {
				tb.Get(th, key)
			}
		}
		th.Barrier()
	}
}

// kvBodyC is kvBody through the ...C forms, for RunCont. Its loop is
// one closure per thread, so what the guard counts is the table's.
func kvBodyC(put bool, ops int) core.ContBody {
	return func(th *core.Thread, done func()) {
		kv.NewC(th, kv.Options{Name: "kv", NumKeys: kvGuardKeys}, func(tb *kv.Table) {
			kv.PreloadC(th, tb, kvGuardKeys, func(int64) {
				i := 0
				var next func(bool)
				got := func(_ uint64, ok bool) { next(ok) }
				next = func(bool) {
					if i == ops {
						th.BarrierC(done)
						return
					}
					key := kvGuardKey(th.ID(), i)
					i++
					if put {
						tb.PutC(th, key, uint64(i), next)
					} else {
						tb.GetC(th, key, got)
					}
				}
				next(true)
			})
		})
	}
}

// TestAllocGuardKV bounds one KV operation, 8 threads on 4 nodes, in
// both API styles. A Get allocates nothing — its steps are bound once
// per Table — beyond the occasional address-cache miss; nor does a Put,
// an AM three times in four whose request and reply headers are pooled
// (it read 1.51 while they were not), and the blocking shim adds
// nothing to either.
func TestAllocGuardKV(t *testing.T) {
	skipPoison(t)
	cfgFn := guardCfg(func(c *core.Config) { c.Threads, c.Nodes = 8, 4 })
	marginalC := func(k int, put bool) float64 {
		run := func(ops int) float64 {
			return testing.AllocsPerRun(3, func() {
				rt, err := core.NewRuntime(cfgFn())
				if err != nil {
					panic(err)
				}
				if _, err := rt.RunCont(kvBodyC(put, ops)); err != nil {
					panic(err)
				}
			})
		}
		return (run(2*k) - run(k)) / float64(k)
	}
	const k, threads = 512, 8
	for _, c := range []struct {
		name  string
		per   float64 // per operation: every thread runs k of them
		bound float64
	}{
		{"Get", marginal(t, k, cfgFn, kvBody(false)) / threads, 0.05},
		{"GetC", marginalC(k, false) / threads, 0.05},
		{"Put", marginal(t, k, cfgFn, kvBody(true)) / threads, 0.05},
		{"PutC", marginalC(k, true) / threads, 0.05},
	} {
		t.Logf("kv %s: %.3f allocs", c.name, c.per)
		if c.per > c.bound {
			t.Errorf("kv %s allocates %.3f (> %.2f): the operation's steps regressed to per-call closures", c.name, c.per, c.bound)
		}
	}
}

// TestAllocGuardKVLoad bounds the load generator's loop around the
// operations: RunLoadC's steps are bound once per thread, so a 50/50
// Zipfian load allocates what its Gets and Puts do — nothing. The loop
// of per-operation closures it replaced read 2.66 here.
func TestAllocGuardKVLoad(t *testing.T) {
	skipPoison(t)
	cfgFn := guardCfg(func(c *core.Config) { c.Threads, c.Nodes = 8, 4 })
	run := func(ops int64) float64 {
		return testing.AllocsPerRun(3, func() {
			rt, err := core.NewRuntime(cfgFn())
			if err != nil {
				panic(err)
			}
			z, err := kv.NewZipf(kvGuardKeys, 0.9)
			if err != nil {
				panic(err)
			}
			w := kv.Workload{Ops: ops, NumKeys: kvGuardKeys, Theta: 0.9, ReadFrac: 0.5}
			if _, err := rt.RunCont(func(th *core.Thread, done func()) {
				kv.NewC(th, kv.Options{Name: "kv", NumKeys: kvGuardKeys}, func(tb *kv.Table) {
					kv.PreloadC(th, tb, kvGuardKeys, func(int64) {
						kv.RunLoadC(th, tb, w, z, func(kv.ThreadResult) { th.BarrierC(done) })
					})
				})
			}); err != nil {
				panic(err)
			}
		})
	}
	const k, threads = 512, 8
	per := (run(2*k) - run(k)) / (k * threads)
	t.Logf("kv load loop: %.3f allocs per op", per)
	if per > 0.05 {
		t.Errorf("kv load loop allocates %.3f per op (> 0.05): its steps regressed to per-op closures", per)
	}
}

// disBodyC runs mark reps times back to back on every thread under
// RunCont, each repetition a whole program over a fresh array.
func disBodyC(mark dis.Func, reps int) core.ContBody {
	return func(th *core.Thread, done func()) {
		left := reps
		var next func(uint64)
		next = func(uint64) {
			if left == 0 {
				done()
				return
			}
			left--
			mark(th, dis.Params{}, next)
		}
		next(0)
	}
}

// collectivesC is a mark with the collective operations of one and
// nothing else: an allocation, then barriers barriers.
func collectivesC(barriers int) dis.Func {
	return func(th *core.Thread, _ dis.Params, done func(uint64)) {
		left := barriers
		var next func()
		next = func() {
			if left == 0 {
				done(0)
				return
			}
			left--
			th.BarrierC(next)
		}
		th.AllAllocC("guard", 256*int64(th.Threads()), 8, 256, func(*core.SharedArray) { next() })
	}
}

// TestAllocGuardDIS bounds what each DIS stressmark allocates of its
// own, on two threads of two nodes. A repetition of a mark — a whole
// program, run back to back on a fresh array — is measured marginally;
// from it are taken what its collectives allocate (collectivesC with
// the mark's barriers) and what TestAllocGuardGetPut and
// TestAllocGuardAM allow its remote PUTs and GETs. What is left is the
// mark's state record, its steps bound once and its buffers, less
// collectivesC's closures: a constant per thread (it reads at most 4;
// Update's is negative, as its PUTs take 0.05 less than they are
// allowed). A step
// that allocated per hop, sample or segment would add 96, 160, 18 or
// ≈100 per thread.
func TestAllocGuardDIS(t *testing.T) {
	skipPoison(t)
	cfgFn := guardCfg(nil)
	// perRep returns the allocations, remote GETs and remote PUTs of one
	// repetition of mark.
	perRep := func(mark dis.Func) (allocs, gets, puts float64) {
		run := func(reps int) (float64, core.RunStats) {
			var st core.RunStats
			a := testing.AllocsPerRun(3, func() {
				rt, err := core.NewRuntime(cfgFn())
				if err != nil {
					panic(err)
				}
				if st, err = rt.RunCont(disBodyC(mark, reps)); err != nil {
					panic(err)
				}
			})
			return a, st
		}
		const k = 4
		a1, s1 := run(k)
		a2, s2 := run(2 * k)
		return (a2 - a1) / k, float64(s2.Gets-s1.Gets) / k, float64(s2.Puts-s1.Puts) / k
	}
	const threads, bound = 2, 8
	for _, c := range []struct {
		mark     string
		barriers int
	}{
		{"pointer", 2}, {"update", 2}, {"neighborhood", 2}, {"field", 1 + 2*6},
	} {
		fn, err := dis.ByName(c.mark)
		if err != nil {
			t.Fatal(err)
		}
		per, gets, puts := perRep(fn)
		coll, _, _ := perRep(collectivesC(c.barriers))
		ops := 4.05*puts + 0.05*gets
		own := (per - coll - ops) / threads
		t.Logf("%s: %.2f allocs per repetition, collectives %.2f, %.0f remote PUTs and %.0f GETs %.2f: %.2f per thread of its own",
			c.mark, per, coll, puts, gets, ops, own)
		if own > bound {
			t.Errorf("%s allocates %.2f per thread of its own (> %d): a step allocates per access", c.mark, own, bound)
		}
	}
}
