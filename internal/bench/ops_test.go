package bench

// The runtime's micro-ops, each defined once, in one table that two
// consumers read: TestAllocGuard checks each op's host allocations per
// op against its exact expected reading, and BenchmarkOps times it. An
// op's reading is marginal — AllocsPerRun over a whole run of K ops and
// over one of 2K, difference divided by K — so runtime construction and
// warm-up cancel out, and it repeats to the last digit: AllocsPerRun
// measures at GOMAXPROCS 1, and everything a run allocates is a function
// of its configuration. So the guard checks it with ==: one allocation
// more per op, or per 256 ops, fails the row, as does one less (lower
// the row's expected value then; its bound stays).

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

// An op is one named micro-op.
type op struct {
	name string
	// run does n×per ops (per is 1 if zero) in one whole run, built and
	// torn down; the reading takes it at n = k and n = 2k.
	run    func(n int)
	k, per int
	// allocs is the exact marginal allocations per op; bound is what the
	// guard held the op to while it was not exact, which the race build
	// (whose detector allocates on its own) is held to instead.
	allocs, bound float64
	// bytes and byteBound are the same in bytes allocated; a zero
	// byteBound checks none.
	bytes, byteBound float64
}

// ops is the table. The rows' bodies are below it.
var ops = []op{
	// A cached GET+PUT round is RDMA both ways: pooled DMA descriptors,
	// w64 staging, pooled packets and bounce buffer, the PUT's remote
	// completion, and the pooled watcher that retires the PUT under the
	// fence.
	{name: "core.get_put_cached", run: blocking(nil, getPutBody), k: 256, bound: 0.05},
	// A bulk PUT travels in a bounce buffer that pool.Bytes recycles up
	// to 4 MiB, and a rendezvous PUT's request-to-send travels back as
	// its own answer; a buffer that is not recycled reads the whole
	// payload in bytes.
	{name: "core.put_cached", run: blocking(nil, bulkPutBody(8)), k: 64, bound: 0.05, byteBound: 64},
	{name: "core.put_64k_cached", run: blocking(nil, bulkPutBody(64<<10)), k: 64, bound: 0.05, byteBound: 64},
	{name: "core.put_1m_rendezvous", run: blocking(noCache, bulkPutBody(1<<20)), k: 64, bound: 0.05, byteBound: 64},
	// The reliable layer adds nothing per packet: packets and ACKs are
	// pooled records with their steps bound once, timers are embedded in
	// the packets, and the wire copies carry their headers by value.
	{name: "core.get_put_cached_rel", run: blocking(reliable, getPutBody), k: 256, bound: 0.5},
	// One cached FetchAdd is a single RDMA atomic round trip: pooled
	// descriptor, pooled packets, w64 staging.
	{name: "core.fetchadd_cached", run: blocking(nil, atomicBody), k: 256, bound: 0.05},
	// Every remote access takes the AM round trip without an address
	// cache: the request header, the completion it is answered through,
	// the answer's header and the eager GET's bounce buffer are pooled,
	// and an atomic's request comes back as its answer with the
	// previous value in it, so nothing is left.
	{name: "core.get_uncached", run: blocking(noCache, amBody(false)), k: 256, bound: 0.05, byteBound: 12},
	{name: "core.fetchadd_uncached", run: blocking(noCache, amBody(true)), k: 256, bound: 0.05, byteBound: 12},
	// A user AM to a handler that sleeps, reads and writes locally:
	// nothing per message on either side.
	{name: "core.user_am", run: userAMRun, k: 256, bound: 0.05},
	// A round of 8 coalesced NbGets and a SyncAll.
	{name: "core.nbget_coalesced", run: blocking(coalescing, coalesceBody), k: 64, allocs: 24, bound: 64},
	// A barrier of 8 threads on 4 nodes: each fences, combines in shared
	// memory and — the representatives — runs two dissemination rounds.
	// What it allocates is what the protocol sends and waits on: message
	// headers, round and release completions, their waiter lists.
	{name: "core.barrier", run: blocking(eightOnFour, barrierBody), k: 64, allocs: 32, bound: 34},
	// One Compute on each of 4 threads sharing 2 cores: half the
	// acquisitions queue.
	{name: "core.compute", run: blocking(twoCores, computeBody), k: 256, allocs: 2.0 / 256, bound: 0.1},
	// A KV Get's steps are bound once per Table; a Put is an AM three
	// times in four whose request and reply headers are pooled, and the
	// blocking shim adds nothing to either. What is left — one allocation in 4,096 Gets, two in as
	// many Puts — is not per operation. Every one of the 8 threads runs
	// n.
	{name: "kv.get", run: blocking(eightOnFour, kvBody(false)), k: 512, per: 8, allocs: 1.0 / 4096, bound: 0.05},
	{name: "kv.get_c", run: cont(eightOnFour, kvBodyC(false)), k: 512, per: 8, allocs: 1.0 / 4096, bound: 0.05},
	{name: "kv.put", run: blocking(eightOnFour, kvBody(true)), k: 512, per: 8, allocs: 2.0 / 4096, bound: 0.05},
	{name: "kv.put_c", run: cont(eightOnFour, kvBodyC(true)), k: 512, per: 8, allocs: 2.0 / 4096, bound: 0.05},
	// A 50/50 Zipfian load: RunLoadC's steps are bound once per thread.
	{name: "kv.load", run: cont(eightOnFour, kvLoadC), k: 512, per: 8, allocs: 7.0 / 4096, bound: 0.05},
	// One repetition of a DIS stressmark on two threads of two nodes — a
	// whole program over a fresh array: its collectives, its remote
	// accesses, and its state record, steps and buffers. Each bound is
	// what the mark's collectives alone read (40.5 with two barriers,
	// 106.5 with Field's thirteen), 0.05 per remote GET and PUT, and 8
	// per thread of the mark's own; a step that allocated per hop,
	// sample or segment would add 96, 160, 18 or ≈100 per thread. Field
	// reads its 64 KiB block through a view of node memory: its bytes
	// bound is the collectives' 9,744 and, per thread, the block less the
	// collectives' 2 KiB array plus 8 KiB, which a private copy of the
	// block would exceed.
	{name: "dis.pointer", run: cont(nil, disBodyC(dis.Pointer)), k: 4,
		allocs: 47, bound: 40.5 + 0.05*82 + 2*8},
	{name: "dis.update", run: cont(nil, disBodyC(dis.Update)), k: 4,
		allocs: 49.75, bound: 40.5 + 0.05*(195+207) + 2*8},
	{name: "dis.neighborhood", run: cont(nil, disBodyC(dis.Neighborhood)), k: 4,
		allocs: 49, bound: 40.5 + 0.05*60 + 2*8},
	{name: "dis.field", run: cont(nil, disBodyC(dis.Field)), k: 4,
		allocs: 114, bound: 106.5 + 0.05*48 + 2*8,
		bytes: 144608, byteBound: 9744 + 2*(64<<10-2<<10+8<<10)},
	// The engine alone: a callback that schedules the next, and a
	// process that sleeps, parked and resumed once per hop.
	{name: "sim.callback", run: callbackRun, k: 4096},
	{name: "sim.handoff", run: handoffRun, k: 4096},
}

// TestAllocGuard reads every op's allocations per op and checks them
// against its row: exactly, or within its bound in the race build. The
// poison build never reuses a pooled record and skips.
func TestAllocGuard(t *testing.T) {
	if pool.Poison {
		t.Skip("the xlupcpoison build allocates every pooled record afresh")
	}
	for _, o := range ops {
		t.Run(o.name, func(t *testing.T) {
			count := func(n int) float64 { return testing.AllocsPerRun(3, func() { o.run(n) }) }
			per := float64(max(o.per, 1))
			allocs := (count(2*o.k) - count(o.k)) / float64(o.k) / per
			t.Logf("%g allocs per op", allocs)
			check(t, "allocations", allocs, o.allocs, o.bound)
			if o.byteBound != 0 {
				bytes := marginalBytes(o) / per
				t.Logf("%g bytes per op", bytes)
				check(t, "bytes", bytes, o.bytes, o.byteBound)
			}
		})
	}
}

// check fails a reading that is not want, or in the race build one
// above bound.
func check(t *testing.T, what string, got, want, bound float64) {
	t.Helper()
	switch {
	case raceBuild && got > bound:
		t.Errorf("%g %s per op (> %g)", got, what, bound)
	case !raceBuild && got != want:
		t.Errorf("%g %s per op, want exactly %g", got, what, want)
	}
}

// marginalBytes is the marginal reading in bytes allocated. Each run
// size is read three times and the least reading kept: an allocation
// from outside the run (the race detector's, the runtime's) only ever
// adds to a reading. Like AllocsPerRun, it reads at GOMAXPROCS 1.
func marginalBytes(o op) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	read := func(n int) uint64 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		o.run(n)
		runtime.ReadMemStats(&m1)
		return m1.TotalAlloc - m0.TotalAlloc
	}
	least := func(n int) float64 { return float64(min(read(n), read(n), read(n))) }
	read(o.k) // grow the pools' backing arrays once
	return (least(2*o.k) - least(o.k)) / float64(o.k)
}

// BenchmarkOps times every op, one sub-benchmark per row; an iteration
// is an op's per ops.
func BenchmarkOps(b *testing.B) {
	for _, o := range ops {
		b.Run(o.name, func(b *testing.B) {
			b.ReportAllocs()
			o.run(b.N)
		})
	}
}

// newRuntime is the ops' machine, two threads on two nodes with the
// default cache unless mut changes it.
func newRuntime(mut func(*core.Config)) *core.Runtime {
	cfg := core.Config{Threads: 2, Nodes: 2, Profile: transport.GM(), Cache: core.DefaultCache(), Seed: 9}
	if mut != nil {
		mut(&cfg)
	}
	rt, err := core.NewRuntime(cfg)
	if err != nil {
		panic(err)
	}
	return rt
}

func noCache(c *core.Config)     { c.Cache = core.NoCache() }
func eightOnFour(c *core.Config) { c.Threads, c.Nodes = 8, 4 }

func reliable(c *core.Config) {
	rel := transport.DefaultRelConfig()
	c.Rel = &rel
}

func coalescing(c *core.Config) {
	cc := transport.DefaultCoalConfig()
	c.Coalesce = &cc
}

func twoCores(c *core.Config) {
	c.Threads, c.Nodes = 4, 1
	p := *c.Profile
	p.Cores = 2
	c.Profile = &p
}

func must(_ core.RunStats, err error) {
	if err != nil {
		panic(err)
	}
}

// blocking is a run of body under Runtime.Run.
func blocking(mut func(*core.Config), body func(th *core.Thread, n int)) func(int) {
	return func(n int) { must(newRuntime(mut).Run(func(th *core.Thread) { body(th, n) })) }
}

// cont is a run of body(n) under Runtime.RunCont.
func cont(mut func(*core.Config), body func(n int) core.ContBody) func(int) {
	return func(n int) { must(newRuntime(mut).RunCont(body(n))) }
}

// getPutBody warms the address cache, then runs n rounds of the
// blocking fast path: one remote GetUint64 plus one remote PutUint64
// with a fence every 8 rounds.
func getPutBody(th *core.Thread, n int) {
	a := th.AllAlloc("guard", 512, 8, 256)
	th.Barrier()
	if th.ID() == 0 {
		r := a.At(256) // node 1's block
		th.PutUint64(r, 7)
		th.Fence()
		_ = th.GetUint64(r) // cache now warm for both directions
		for i := 0; i < n; i++ {
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

// bulkPutBody has thread 0 write size bytes into node 1's block n
// times, one fenced PutBulk each, after one PUT that warms the address
// cache when there is one.
func bulkPutBody(size int) func(th *core.Thread, n int) {
	return func(th *core.Thread, n int) {
		a := th.AllAlloc("guard", 2*int64(size), 1, int64(size))
		th.Barrier()
		if th.ID() == 0 {
			src := make([]byte, size)
			r := a.At(int64(size)) // node 1's block
			for i := 0; i <= n; i++ {
				th.PutBulk(r, src)
				th.Fence()
			}
		}
		th.Barrier()
	}
}

// atomicBody warms the address cache, then runs n blocking remote
// FetchAdds, each executed at the target NIC.
func atomicBody(th *core.Thread, n int) {
	a := th.AllAlloc("guard", 512, 8, 256)
	th.Barrier()
	if th.ID() == 0 {
		r := a.At(256)        // node 1's block
		_ = th.FetchAdd(r, 1) // warm: first op takes the AM path and pins the base
		for i := 0; i < n; i++ {
			_ = th.FetchAdd(r, 1)
		}
	}
	th.Barrier()
}

// amBody runs n AM round trips without an address cache: a blocking
// eager GET, or an active-message FetchAdd.
func amBody(atomic bool) func(th *core.Thread, n int) {
	return func(th *core.Thread, n int) {
		a := th.AllAlloc("guard", 512, 8, 256)
		th.Barrier()
		if th.ID() == 0 {
			r := a.At(256) // node 1's block
			th.PutUint64(r, 1000)
			th.Fence()
			for i := 0; i < n; i++ {
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

// guardUser is the user-AM handler id of core.user_am.
const guardUser core.UserHandlerID = 0

// guardAM is core.user_am's handler: it sleeps, reads the anchor's
// first word, writes it back incremented, and replies with it. Its
// state is a record of its own with its steps bound once, so what the
// guard counts is the dispatch machinery's.
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

// userAMRun runs n user-AM round trips from thread 0 to node 1. Its
// loop is one closure per thread, so what the guard counts is the round
// trip's.
func userAMRun(n int) {
	rt := newRuntime(noCache)
	rt.HandleUser(guardUser, newGuardAM().serve)
	must(rt.RunCont(func(th *core.Thread, done func()) {
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
					if i == n {
						th.BarrierC(done)
						return
					}
					i++
					th.CallAMC(a, 1, guardUser, 0, 0, 8, reply[:], "user", next)
				}
				next(0)
			})
		})
	}))
}

// coalesceBody issues n batches of 8 split-phase NbGets that the
// coalescer buffers and flushes, retiring each batch with SyncAll.
func coalesceBody(th *core.Thread, n int) {
	a := th.AllAlloc("guard", 512, 8, 256)
	th.Barrier()
	if th.ID() == 0 {
		var bufs [8][8]byte
		r := a.At(256)
		_ = th.GetUint64(r) // warm the cache
		for i := 0; i < n; i++ {
			for j := range bufs {
				th.NbGet(bufs[j][:], a.At(256+int64((i+j)%256)))
			}
			th.SyncAll()
		}
	}
	th.Barrier()
}

// barrierBody runs n whole-machine barriers (every thread takes part).
func barrierBody(th *core.Thread, n int) {
	for i := 0; i < n; i++ {
		th.Barrier()
	}
}

// computeBody has every thread compute n times.
func computeBody(th *core.Thread, n int) {
	for i := 0; i < n; i++ {
		th.Compute(100 * sim.Ns)
	}
}

// kvGuardKey is a uniform key stream over the preloaded population.
func kvGuardKey(tid, i int) uint64 {
	return 1 + sim.SplitMix64(uint64(tid)<<32|uint64(i))%kvGuardKeys
}

const kvGuardKeys = 4096

// kvBody preloads a table, then runs n Gets (or Puts) of uniform keys
// on every thread through the blocking methods.
func kvBody(put bool) func(th *core.Thread, n int) {
	return func(th *core.Thread, n int) {
		tb := kv.New(th, kv.Options{Name: "kv", NumKeys: kvGuardKeys})
		kv.Preload(th, tb, kvGuardKeys)
		for i := 0; i < n; i++ {
			if key := kvGuardKey(th.ID(), i); put {
				tb.Put(th, key, uint64(i))
			} else {
				tb.Get(th, key)
			}
		}
		th.Barrier()
	}
}

// kvBodyC is kvBody through the ...C forms. Its loop is one closure
// per thread, so what the guard counts is the table's.
func kvBodyC(put bool) func(n int) core.ContBody {
	return func(n int) core.ContBody {
		return func(th *core.Thread, done func()) {
			kv.NewC(th, kv.Options{Name: "kv", NumKeys: kvGuardKeys}, func(tb *kv.Table) {
				kv.PreloadC(th, tb, kvGuardKeys, func(int64) {
					i := 0
					var next func(bool)
					got := func(_ uint64, ok bool) { next(ok) }
					next = func(bool) {
						if i == n {
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
}

// kvLoadC runs the load generator for n operations per thread.
func kvLoadC(n int) core.ContBody {
	z, err := kv.NewZipf(kvGuardKeys, 0.9)
	if err != nil {
		panic(err)
	}
	w := kv.Workload{Ops: int64(n), NumKeys: kvGuardKeys, Theta: 0.9, ReadFrac: 0.5}
	return func(th *core.Thread, done func()) {
		kv.NewC(th, kv.Options{Name: "kv", NumKeys: kvGuardKeys}, func(tb *kv.Table) {
			kv.PreloadC(th, tb, kvGuardKeys, func(int64) {
				kv.RunLoadC(th, tb, w, z, func(kv.ThreadResult) { th.BarrierC(done) })
			})
		})
	}
}

// disBodyC runs mark n times back to back on every thread, each
// repetition a whole program over a fresh array.
func disBodyC(mark dis.Func) func(n int) core.ContBody {
	return func(n int) core.ContBody {
		return func(th *core.Thread, done func()) {
			left := n
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
}

// callbackRun runs n kernel callbacks, each scheduling the next: the
// kernel's fastest path.
func callbackRun(n int) {
	k := sim.NewKernel()
	i := 0
	var tick func()
	tick = func() {
		if i++; i < n {
			k.After(10, tick)
		}
	}
	k.After(10, tick)
	if err := k.Run(); err != nil {
		panic(err)
	}
}

// handoffRun has one process sleep n times: one park and resume of its
// coroutine per hop.
func handoffRun(n int) {
	k := sim.NewKernel()
	k.Spawn("walker", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(10)
		}
	})
	if err := k.Run(); err != nil {
		panic(err)
	}
}
