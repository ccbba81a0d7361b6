package main

// api.go is the only file of the benchmark that calls into
// xlupc/internal/...: everything the workloads and the layer drivers
// need from the program goes through the functions below, so a later
// change to the program's API breaks exactly one file here.
//
// Pinned surface (the benchmark relies on nothing else):
//
//	core       Config{Threads,Nodes,Profile,Exec,Cache,Seed,Rel,Coalesce},
//	           DefaultCache, NoCache, ExecCont, NewRuntime, Runtime.Run,
//	           Runtime.RunCont, Runtime.K.Events, RunStats (the fields
//	           countsOf reads), Thread.{ID,Threads,AllAlloc,Barrier,
//	           GetUint64,PutUint64,FetchAdd,NbGet,Sync} and the C-suffixed
//	           continuation twins, SharedArray.At
//	kv         Options{Name,NumKeys}, New/NewC, Preload/PreloadC,
//	           Workload, NewZipf, RunLoadC, Merge, Table.{Get,Put,GetC,PutC}
//	sim        NewKernel, Kernel.{After,AfterTimer,Spawn,SpawnC,Run,Events},
//	           Proc.Sleep, Cont.{Sleep,Finish}, Timer.Cancel, Loop,
//	           NewResource, Resource.{AcquireC,Release}, Queue.TryPop
//	fabric     New, DefaultCrossbar3, Fabric.{InjectC,Port}, ClassAM
//	addrcache  New, LRU, Key, Cache.{Lookup,Insert}
//	mem        NewPinTable, PinLimited, PinTable.{SetEvictor,Pin,Unpin,Touch},
//	           EvictLRU/EvictClock/EvictCost, PageSize, Addr
//	svd        NewDirectory, ControlBlock, Handle, Directory.{Register,Lookup}
//	transport  GM() (and its Wire and Reg fields), DefaultRelConfig,
//	           DefaultCoalConfig
//
// Deliberately not used: internal/bench and its SetExec / SetParallelism /
// SetFlight switches, the CLIs' -exec flags, and transport.Handler
// signatures — ROADMAP items 2 and 5 intend to delete or reshape them.

import (
	"fmt"

	"xlupc/internal/addrcache"
	"xlupc/internal/core"
	"xlupc/internal/fabric"
	"xlupc/internal/kv"
	"xlupc/internal/mem"
	"xlupc/internal/sim"
	"xlupc/internal/svd"
	"xlupc/internal/transport"
)

// counts is the part of core.RunStats the benchmark reports, copied out
// so that no other file depends on the struct.
type counts struct {
	VirtPs                 int64 // virtual makespan, picoseconds
	Events                 int64 // kernel events
	Messages, NetBytes     int64 // fabric traffic
	AMOps, RDMAOps         int64 // transport operations
	CacheHits, CacheMisses int64
	CacheEvictions         int64
	Pins                   int64
	RegVirtPs              int64 // virtual time spent registering memory
	Gets, LocalGets        int64
	GetVirtPs              int64 // virtual time threads spent in GETs
}

func countsOf(st core.RunStats) counts {
	return counts{
		VirtPs: int64(st.Elapsed), Events: st.KernelEvents,
		Messages: st.Messages, NetBytes: st.NetBytes,
		AMOps: st.AMOps, RDMAOps: st.RDMAOps,
		CacheHits: st.Cache.Hits, CacheMisses: st.Cache.Misses,
		CacheEvictions: st.Cache.Evictions,
		Pins:           st.Pins, RegVirtPs: int64(st.RegTime),
		Gets: st.Gets, LocalGets: st.LocalGets,
		GetVirtPs: int64(st.GetTime),
	}
}

// simRuntime wraps one core.Runtime; a runtime runs one program.
type simRuntime struct{ rt *core.Runtime }

// --- pointer chase ----------------------------------------------------------

// chaseSpec sizes one pointer-chase run. The program is the benchmark's
// own copy of internal/bench's big-scale body: AllAlloc(n = Elems*threads,
// elem 8, block Elems), owner fill a[i] = splitmix64(i^seed) % n, barrier,
// start at splitmix64(tid^0xB16) % n, Hops dependent GetUint64 hops,
// barrier.
type chaseSpec struct {
	Threads, Nodes int
	Elems          int64 // elements per thread (the block size)
	Hops           int
	Cached         bool // address cache on, capacity = Nodes
	Cont           bool // continuation API (RunCont) or blocking (Run)
}

func (s chaseSpec) ops() int64 { return int64(s.Threads) * int64(s.Hops) }

func newChaseRuntime(s chaseSpec, seed int64) (*simRuntime, error) {
	cache := core.NoCache()
	if s.Cached {
		cache = core.DefaultCache()
		cache.Capacity = s.Nodes
	}
	cfg := core.Config{
		Threads: s.Threads, Nodes: s.Nodes, Profile: transport.GM(),
		Cache: cache, Seed: seed,
	}
	if s.Cont {
		cfg.Exec = core.ExecCont
	}
	rt, err := core.NewRuntime(cfg)
	if err != nil {
		return nil, err
	}
	return &simRuntime{rt}, nil
}

// chase runs the program and returns every thread's checksum. initDone
// is called once, on the host, when thread 0 leaves the first barrier.
func (r *simRuntime) chase(s chaseSpec, seed int64, initDone func()) ([]uint64, counts, error) {
	checks := make([]uint64, s.Threads)
	var st core.RunStats
	var err error
	if s.Cont {
		st, err = r.rt.RunCont(func(t *core.Thread, done func()) {
			chaseBodyC(t, s, seed, initDone, func(c uint64) {
				checks[t.ID()] = c
				done()
			})
		})
	} else {
		st, err = r.rt.Run(func(t *core.Thread) {
			checks[t.ID()] = chaseBody(t, s, seed, initDone)
		})
	}
	return checks, countsOf(st), err
}

func chaseBody(t *core.Thread, s chaseSpec, seed int64, initDone func()) uint64 {
	n := s.Elems * int64(t.Threads())
	a := t.AllAlloc("chase", n, 8, s.Elems)
	lo := int64(t.ID()) * s.Elems
	for i := lo; i < lo+s.Elems; i++ {
		t.PutUint64(a.At(i), chaseFill(i, seed, n))
	}
	t.Barrier()
	if t.ID() == 0 {
		initDone()
	}
	pos := chaseStart(t.ID(), n)
	var check uint64
	for h := 0; h < s.Hops; h++ {
		v := t.GetUint64(a.At(pos))
		check ^= v + uint64(h)
		pos = int64(v)
	}
	t.Barrier()
	return check
}

func chaseBodyC(t *core.Thread, s chaseSpec, seed int64, initDone func(), done func(uint64)) {
	n := s.Elems * int64(t.Threads())
	t.AllAllocC("chase", n, 8, s.Elems, func(a *core.SharedArray) {
		lo := int64(t.ID()) * s.Elems
		i := lo
		sim.Loop(func(next func()) {
			if i == lo+s.Elems {
				t.BarrierC(func() {
					if t.ID() == 0 {
						initDone()
					}
					chaseHopsC(t, s, a, n, done)
				})
				return
			}
			idx := i
			i++
			t.PutUint64C(a.At(idx), chaseFill(idx, seed, n), next)
		})
	})
}

// chaseHopsC drives the hops with one self-recursive closure per thread,
// so the chase adds no per-hop allocation to the profile it measures.
func chaseHopsC(t *core.Thread, s chaseSpec, a *core.SharedArray, n int64, done func(uint64)) {
	var check uint64
	h := 0
	finish := func() { t.BarrierC(func() { done(check) }) }
	if s.Hops == 0 {
		finish()
		return
	}
	var step func(v uint64)
	step = func(v uint64) {
		check ^= v + uint64(h)
		h++
		if h == s.Hops {
			finish()
			return
		}
		t.GetUint64C(a.At(int64(v)), step)
	}
	t.GetUint64C(a.At(chaseStart(t.ID(), n)), step)
}

// --- key-value load ---------------------------------------------------------

// kvSpec sizes one kv_mixed run: a closed loop of Threads clients, each
// issuing OpsPerThread Zipfian operations against a preloaded table.
type kvSpec struct {
	Threads, Nodes int
	Keys           int64
	OpsPerThread   int64
	Theta          float64
	ReadFrac       float64
}

func (s kvSpec) ops() int64 { return int64(s.Threads) * s.OpsPerThread }

// kvOutcome is the merged generator result of one run.
type kvOutcome struct {
	Ops, Reads, Writes, Found int64
	Checksum                  uint64
}

func newKVRuntime(s kvSpec, seed int64) (*simRuntime, error) {
	rt, err := core.NewRuntime(core.Config{
		Threads: s.Threads, Nodes: s.Nodes, Profile: transport.GM(),
		Cache: core.DefaultCache(), Seed: seed, Exec: core.ExecCont,
	})
	if err != nil {
		return nil, err
	}
	return &simRuntime{rt}, nil
}

// kvLoad runs NewC + PreloadC + RunLoadC on every thread. initDone is
// called on the host when thread 0's PreloadC returns. A read whose
// value does not echo its key panics inside kv.RunLoadC; the caller
// recovers that as a failed rep.
func (r *simRuntime) kvLoad(s kvSpec, initDone func()) (kvOutcome, counts, error) {
	w := kv.Workload{Ops: s.OpsPerThread, NumKeys: s.Keys, Theta: s.Theta, ReadFrac: s.ReadFrac}
	if err := w.Validate(); err != nil {
		return kvOutcome{}, counts{}, err
	}
	z, err := kv.NewZipf(w.NumKeys, w.Theta)
	if err != nil {
		return kvOutcome{}, counts{}, err
	}
	results := make([]kv.ThreadResult, s.Threads)
	st, err := r.rt.RunCont(func(t *core.Thread, done func()) {
		kv.NewC(t, kv.Options{Name: "kv", NumKeys: s.Keys}, func(tb *kv.Table) {
			kv.PreloadC(t, tb, w.NumKeys, func(int64) {
				if t.ID() == 0 {
					initDone()
				}
				kv.RunLoadC(t, tb, w, z, func(res kv.ThreadResult) {
					results[t.ID()] = res
					done()
				})
			})
		})
	})
	m := kv.Merge(results)
	return kvOutcome{Ops: m.Ops, Reads: m.Reads, Writes: m.Writes, Found: m.Found, Checksum: m.Checksum},
		countsOf(st), err
}

// --- layer drivers ----------------------------------------------------------
//
// Each driver performs d.n operations of exactly one layer between
// d.start() and d.stop(events); set-up stays outside that window.

func drvSimCallback(d *drv) error {
	k := sim.NewKernel()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < d.n {
			k.After(10, tick)
		}
	}
	k.After(10, tick)
	d.start()
	err := k.Run()
	d.stop(k.Events())
	return err
}

// drvSimFanout keeps `width` self-rescheduling timers pending, so every
// push and pop works on a heap as deep as chase_cached's.
func drvSimFanout(width int) func(*drv) error {
	return func(d *drv) error {
		k := sim.NewKernel()
		n := 0
		for i := 0; i < width; i++ {
			period := sim.Duration(10 + i%7)
			var tick func()
			tick = func() {
				n++
				if n < d.n {
					k.After(period, tick)
				}
			}
			k.After(period, tick)
		}
		d.start()
		err := k.Run()
		d.stop(k.Events())
		return err
	}
}

func drvSimHandoff(d *drv) error {
	k := sim.NewKernel()
	k.Spawn("walker", func(p *sim.Proc) {
		for i := 0; i < d.n; i++ {
			p.Sleep(10)
		}
	})
	d.start()
	err := k.Run()
	d.stop(k.Events())
	return err
}

func drvSimContSleep(d *drv) error {
	k := sim.NewKernel()
	k.SpawnC("walker", func(c *sim.Cont) {
		i := 0
		var step func()
		step = func() {
			i++
			if i == d.n {
				c.Finish()
				return
			}
			c.Sleep(10, step)
		}
		c.Sleep(10, step)
	})
	d.start()
	err := k.Run()
	d.stop(k.Events())
	return err
}

// drvSimTimerCancel arms and cancels one timer per tick; the cancelled
// events are popped by the same event loop, so the heap stays shallow.
func drvSimTimerCancel(d *drv) error {
	k := sim.NewKernel()
	n := 0
	nop := func() {}
	var tick func()
	tick = func() {
		k.AfterTimer(5, nop).Cancel()
		n++
		if n < d.n {
			k.After(10, tick)
		}
	}
	k.After(10, tick)
	d.start()
	err := k.Run()
	d.stop(k.Events())
	return err
}

func drvSimResource(d *drv) error {
	r := sim.NewResource(sim.NewKernel(), "res", 1)
	nop := func() {}
	d.start()
	for i := 0; i < d.n; i++ {
		r.AcquireC(nop)
		r.Release()
	}
	d.stop(0)
	return nil
}

// drvFabricInject sends size-byte messages from node 0 round-robin to
// the other nodes of a 64-node Crossbar3, one in flight at a time, and
// drains the destination queue as each arrives.
func drvFabricInject(size int) func(*drv) error {
	return func(d *drv) error {
		const nodes = 64
		k := sim.NewKernel()
		f := fabric.New(k, fabric.DefaultCrossbar3(nodes), transport.GM().Wire)
		n, popped := 0, 0
		var send func()
		var sent func(arrive sim.Time)
		send = func() {
			dst := 1 + n%(nodes-1)
			f.InjectC(0, dst, size, fabric.ClassAM, nil, sent)
		}
		sent = func(arrive sim.Time) {
			dst := 1 + n%(nodes-1)
			n++
			k.At(arrive, func() {
				if _, ok := f.Port(dst).AM.TryPop(); ok {
					popped++
				}
				if n < d.n {
					send()
				}
			})
		}
		send()
		d.start()
		err := k.Run()
		d.stop(k.Events())
		if err == nil && popped != d.n {
			err = fmt.Errorf("fabric driver: %d of %d messages arrived", popped, d.n)
		}
		return err
	}
}

const cacheDriverCap = 256

func cacheKey(i int) addrcache.Key {
	return addrcache.Key{Handle: uint64(i >> 6), Node: int32(i & 63)}
}

// fullCache is an LRU cache holding keys 0 .. cacheDriverCap-1.
func fullCache() *addrcache.Cache {
	c := addrcache.New(cacheDriverCap, addrcache.LRU, 1)
	for i := 0; i < cacheDriverCap; i++ {
		c.Insert(cacheKey(i), mem.Addr(i))
	}
	return c
}

func drvCacheLookupHit(d *drv) error {
	c := fullCache()
	hits := 0
	d.start()
	for i := 0; i < d.n; i++ {
		if _, ok := c.Lookup(cacheKey(i % cacheDriverCap)); ok {
			hits++
		}
	}
	d.stop(0)
	if hits != d.n {
		return fmt.Errorf("addrcache driver: %d of %d lookups hit", hits, d.n)
	}
	return nil
}

func drvCacheLookupMiss(d *drv) error {
	c := fullCache()
	hits := 0
	d.start()
	for i := 0; i < d.n; i++ {
		if _, ok := c.Lookup(cacheKey(cacheDriverCap + i&0xffff)); ok {
			hits++
		}
	}
	d.stop(0)
	if hits != 0 {
		return fmt.Errorf("addrcache driver: %d lookups hit, want 0", hits)
	}
	return nil
}

func drvCacheInsertEvict(d *drv) error {
	c := fullCache()
	d.start()
	for i := 0; i < d.n; i++ {
		c.Insert(cacheKey(cacheDriverCap+i&0xffff), mem.Addr(i))
	}
	d.stop(0)
	return nil
}

const pinDriverRegions = 256

func pinBase(i int) mem.Addr { return mem.Addr(mem.PageSize * (i + 1)) }

func drvMemPinUnpin(d *drv) error {
	pt := mem.NewPinTable(0, transport.GM().Reg, mem.PinLimited)
	d.start()
	for i := 0; i < d.n; i++ {
		if _, err := pt.Pin(pinBase(0), mem.PageSize, 1, sim.Time(i)); err != nil {
			return err
		}
		pt.Unpin(pinBase(0), sim.Time(i))
	}
	d.stop(0)
	return nil
}

// pinnedTable is a limited-pinning table with pages 0 ..
// pinDriverRegions-1 pinned under the given victim policy.
func pinnedTable(model mem.CostModel, kind mem.EvictorKind) (*mem.PinTable, error) {
	pt := mem.NewPinTable(0, model, mem.PinLimited)
	pt.SetEvictor(kind.New(model))
	for i := 0; i < pinDriverRegions; i++ {
		if _, err := pt.Pin(pinBase(i), mem.PageSize, uint64(i), sim.Time(i)); err != nil {
			return nil, err
		}
	}
	return pt, nil
}

func drvMemTouch(d *drv) error {
	pt, err := pinnedTable(transport.GM().Reg, mem.EvictLRU)
	if err != nil {
		return err
	}
	d.start()
	for i := 0; i < d.n; i++ {
		pt.Touch(pinBase(i%pinDriverRegions), sim.Time(pinDriverRegions+i))
	}
	d.stop(0)
	return nil
}

// drvMemPinEvict pins a cyclic working set of 2*pinDriverRegions pages
// under a budget of pinDriverRegions, so every pin evicts.
func drvMemPinEvict(kind mem.EvictorKind) func(*drv) error {
	return func(d *drv) error {
		model := transport.GM().Reg
		model.MaxTotal = pinDriverRegions * mem.PageSize
		model.MaxPerObject = 0
		pt, err := pinnedTable(model, kind)
		if err != nil {
			return err
		}
		d.start()
		for i := 0; i < d.n; i++ {
			j := (pinDriverRegions + i) % (2 * pinDriverRegions)
			if _, err := pt.Pin(pinBase(j), mem.PageSize, uint64(j), sim.Time(pinDriverRegions+i)); err != nil {
				return err
			}
		}
		d.stop(0)
		return nil
	}
}

func drvSvdLookup(d *drv) error {
	const objects = 64
	dir := svd.NewDirectory(0, 4)
	for i := int32(0); i < objects; i++ {
		dir.Register(&svd.ControlBlock{
			Handle: svd.Handle{Part: svd.AllPartition, Index: i},
			Name:   "obj", ElemSize: 8, Block: 32, NumElems: 1024,
		})
	}
	d.start()
	for i := 0; i < d.n; i++ {
		if _, err := dir.Lookup(svd.Handle{Part: svd.AllPartition, Index: int32(i % objects)}); err != nil {
			return err
		}
	}
	d.stop(0)
	return nil
}

// coreOp is one operation of a core driver: thread 0 of a 2-node /
// 2-thread GM runtime applies it d.n times to an element of thread 1's
// block (or of its own block when local).
type coreOp struct {
	cached   bool
	local    bool
	reliable bool // reliable-delivery layer on, zero loss
	coalesce bool // DefaultCoalConfig on
	blocking func(t *core.Thread, a *core.SharedArray, idx int64, i int)
	cont     func(t *core.Thread, a *core.SharedArray, idx int64, i int, k contNext)
}

// contNext is "run the next iteration" in the shapes the continuation
// API takes its callbacks in, built once per run so that the driver
// adds no allocation of its own to the operation it measures.
type contNext struct {
	plain  func()
	u64    func(uint64)
	fenced func() // fence, then next
}

func newContNext(t *core.Thread, next func()) contNext {
	return contNext{plain: next, u64: func(uint64) { next() }, fenced: func() { t.FenceC(next) }}
}

func (op coreOp) config() core.Config {
	cfg := core.Config{Threads: 2, Nodes: 2, Profile: transport.GM(), Cache: core.NoCache(), Seed: 1}
	if op.cached {
		cfg.Cache = core.DefaultCache()
	}
	if op.reliable {
		rc := transport.DefaultRelConfig()
		cfg.Rel = &rc
	}
	if op.coalesce {
		cc := transport.DefaultCoalConfig()
		cfg.Coalesce = &cc
	}
	if op.cont != nil {
		cfg.Exec = core.ExecCont
	}
	return cfg
}

const coreDriverBlock = 16

func drvCore(op coreOp) func(*drv) error {
	return func(d *drv) error {
		rt, err := core.NewRuntime(op.config())
		if err != nil {
			return err
		}
		idx := int64(coreDriverBlock + 8) // thread 1's block
		if op.local {
			idx = 8
		}
		if op.cont != nil {
			_, err = rt.RunCont(func(t *core.Thread, done func()) {
				t.AllAllocC("A", 2*coreDriverBlock, 8, coreDriverBlock, func(a *core.SharedArray) {
					t.BarrierC(func() {
						if t.ID() != 0 {
							t.BarrierC(done)
							return
						}
						// One warm-up op fills the address cache and pins the target.
						op.cont(t, a, idx, 0, newContNext(t, func() {
							i := 0
							var k contNext
							d.start()
							e0 := rt.K.Events()
							sim.Loop(func(next func()) { // next is the same func on every iteration
								if i == d.n {
									d.stop(rt.K.Events() - e0)
									t.BarrierC(done)
									return
								}
								if i == 0 {
									k = newContNext(t, next)
								}
								i++
								op.cont(t, a, idx, i, k)
							})
						}))
					})
				})
			})
			return err
		}
		_, err = rt.Run(func(t *core.Thread) {
			a := t.AllAlloc("A", 2*coreDriverBlock, 8, coreDriverBlock)
			t.Barrier()
			if t.ID() == 0 {
				op.blocking(t, a, idx, 0)
				d.start()
				e0 := rt.K.Events()
				for i := 1; i <= d.n; i++ {
					op.blocking(t, a, idx, i)
				}
				d.stop(rt.K.Events() - e0)
			}
			t.Barrier()
		})
		return err
	}
}

func opGet(t *core.Thread, a *core.SharedArray, idx int64, _ int) { t.GetUint64(a.At(idx)) }

// PUTs complete locally before the target has them; a fence every 64
// bounds the outstanding set, as a real program's would.
func opPut(t *core.Thread, a *core.SharedArray, idx int64, i int) {
	t.PutUint64(a.At(idx), uint64(i))
	if i&63 == 63 {
		t.Fence()
	}
}
func opFetchAdd(t *core.Thread, a *core.SharedArray, idx int64, _ int) {
	t.FetchAdd(a.At(idx), 1)
}
func opGetC(t *core.Thread, a *core.SharedArray, idx int64, _ int, k contNext) {
	t.GetUint64C(a.At(idx), k.u64)
}
func opPutC(t *core.Thread, a *core.SharedArray, idx int64, i int, k contNext) {
	if i&63 == 63 {
		t.PutUint64C(a.At(idx), uint64(i), k.fenced)
		return
	}
	t.PutUint64C(a.At(idx), uint64(i), k.plain)
}
func opFetchAddC(t *core.Thread, a *core.SharedArray, idx int64, _ int, k contNext) {
	t.FetchAddC(a.At(idx), 1, k.u64)
}

// opNbGet8 is one batch of 8 split-phase GETs retired by one SyncAll;
// the driver reports per GET, so it runs d.n/8 batches.
const nbBatch = 8

func opNbGet8(t *core.Thread, a *core.SharedArray, idx int64, _ int) {
	var buf [nbBatch][8]byte
	for j := 0; j < nbBatch; j++ {
		t.NbGet(buf[j][:], a.At(idx-int64(j)))
	}
	t.SyncAll()
}

// drvCoreBarrier times whole-machine barriers: 64 threads on 16 nodes.
func drvCoreBarrier(d *drv) error {
	rt, err := core.NewRuntime(core.Config{Threads: 64, Nodes: 16, Profile: transport.GM(), Cache: core.NoCache(), Seed: 1})
	if err != nil {
		return err
	}
	var e0 int64
	_, err = rt.Run(func(t *core.Thread) {
		t.Barrier()
		if t.ID() == 0 {
			d.start()
			e0 = rt.K.Events()
		}
		for i := 0; i < d.n; i++ {
			t.Barrier()
		}
		if t.ID() == 0 {
			d.stop(rt.K.Events() - e0)
		}
	})
	return err
}

// drvCoreNewRuntime builds (and drops) d.n runtimes of 256 threads on 64 nodes.
func drvCoreNewRuntime(d *drv) error {
	cfg := core.Config{Threads: 256, Nodes: 64, Profile: transport.GM(), Cache: core.DefaultCache(), Seed: 1}
	d.start()
	for i := 0; i < d.n; i++ {
		if _, err := core.NewRuntime(cfg); err != nil {
			return err
		}
	}
	d.stop(0)
	return nil
}

// kvDriverKeys is the preloaded population of the kv drivers, which run
// on kvDriverThreads threads.
const (
	kvDriverKeys    = 4096
	kvDriverThreads = 8
)

// kvKey is a cheap uniform key stream over [1, kvDriverKeys].
func kvKey(tid, i int) uint64 {
	return 1 + splitmix64(uint64(tid)<<32|uint64(i))%kvDriverKeys
}

// drvKV runs d.n Gets (or Puts) on each of 8 threads on 4 nodes,
// uniform keys, and reports per operation.
func drvKV(put, cont bool) func(*drv) error {
	return func(d *drv) error {
		const threads, nodes = kvDriverThreads, 4
		cfg := core.Config{Threads: threads, Nodes: nodes, Profile: transport.GM(), Cache: core.DefaultCache(), Seed: 1}
		if cont {
			cfg.Exec = core.ExecCont
		}
		rt, err := core.NewRuntime(cfg)
		if err != nil {
			return err
		}
		o := kv.Options{Name: "kv", NumKeys: kvDriverKeys}
		var e0 int64
		missing := 0
		begin := func(t *core.Thread) {
			if t.ID() == 0 {
				d.start()
				e0 = rt.K.Events()
			}
		}
		end := func(t *core.Thread) {
			if t.ID() == 0 {
				d.stop(rt.K.Events() - e0)
			}
		}
		if cont {
			_, err = rt.RunCont(func(t *core.Thread, done func()) {
				kv.NewC(t, o, func(tb *kv.Table) {
					kv.PreloadC(t, tb, kvDriverKeys, func(int64) {
						begin(t)
						i := 0
						// Built on the first iteration and reused: next is the
						// same func every time, and the driver must not add an
						// allocation per operation to the ones it counts.
						var onPut func(ok bool)
						var onGet func(val uint64, ok bool)
						sim.Loop(func(next func()) {
							if i == d.n {
								t.BarrierC(func() { end(t); done() })
								return
							}
							if i == 0 {
								onPut = func(ok bool) {
									if !ok {
										missing++
									}
									next()
								}
								onGet = func(_ uint64, ok bool) { onPut(ok) }
							}
							key := kvKey(t.ID(), i)
							i++
							if put {
								tb.PutC(t, key, uint64(i), onPut)
							} else {
								tb.GetC(t, key, onGet)
							}
						})
					})
				})
			})
		} else {
			_, err = rt.Run(func(t *core.Thread) {
				tb := kv.New(t, o)
				kv.Preload(t, tb, kvDriverKeys)
				begin(t)
				for i := 0; i < d.n; i++ {
					key := kvKey(t.ID(), i)
					ok := false
					if put {
						ok = tb.Put(t, key, uint64(i))
					} else {
						_, ok = tb.Get(t, key)
					}
					if !ok {
						missing++
					}
				}
				t.Barrier()
				end(t)
			})
		}
		if err == nil && missing != 0 {
			err = fmt.Errorf("kv driver: %d operations failed", missing)
		}
		return err
	}
}

// driverTable lists every layer driver with its fixed operation count
// (chosen so one pass takes a few tens of milliseconds on the 2-core
// sandbox) and the columns it reports.
func driverTable() []driver {
	const ns, allocs, events = colNs, colAllocs, colEvents
	core2 := func(name string, n int, op coreOp) driver {
		return driver{name: "core." + name, n: n, cols: ns | allocs | events, run: drvCore(op)}
	}
	return []driver{
		{name: "sim.callback", n: 400_000, cols: ns | allocs, run: drvSimCallback},
		{name: "sim.fanout8k", n: 200_000, cols: ns | allocs, run: drvSimFanout(8192)},
		{name: "sim.handoff", n: 40_000, cols: ns | allocs, run: drvSimHandoff},
		{name: "sim.cont_sleep", n: 400_000, cols: ns | allocs, run: drvSimContSleep},
		{name: "sim.timer_cancel", n: 200_000, cols: ns | allocs, run: drvSimTimerCancel},
		{name: "sim.resource", n: 2_000_000, cols: ns | allocs, run: drvSimResource},

		{name: "fabric.inject16", n: 100_000, cols: ns | allocs | events, run: drvFabricInject(16)},
		{name: "fabric.inject4k", n: 100_000, cols: ns | allocs | events, run: drvFabricInject(4096)},

		{name: "addrcache.lookup_hit", n: 1_000_000, cols: ns | allocs, run: drvCacheLookupHit},
		{name: "addrcache.lookup_miss", n: 1_000_000, cols: ns | allocs, run: drvCacheLookupMiss},
		{name: "addrcache.insert_evict", n: 300_000, cols: ns | allocs, run: drvCacheInsertEvict},

		{name: "mem.pin_unpin", n: 500_000, cols: ns, run: drvMemPinUnpin},
		{name: "mem.touch", n: 1_000_000, cols: ns, run: drvMemTouch},
		{name: "mem.pin_evict_lru", n: 300_000, cols: ns, run: drvMemPinEvict(mem.EvictLRU)},
		{name: "mem.pin_evict_clock", n: 300_000, cols: ns, run: drvMemPinEvict(mem.EvictClock)},
		{name: "mem.pin_evict_cost", n: 300_000, cols: ns, run: drvMemPinEvict(mem.EvictCost)},
		{name: "svd.lookup", n: 1_000_000, cols: ns, run: drvSvdLookup},

		core2("get_cached", 20_000, coreOp{cached: true, blocking: opGet}),
		core2("get_uncached", 20_000, coreOp{blocking: opGet}),
		core2("get_local", 20_000, coreOp{cached: true, local: true, blocking: opGet}),
		core2("put_cached", 20_000, coreOp{cached: true, blocking: opPut}),
		core2("put_uncached", 20_000, coreOp{blocking: opPut}),
		core2("fetchadd_cached", 20_000, coreOp{cached: true, blocking: opFetchAdd}),
		core2("get_uncached_rel", 20_000, coreOp{reliable: true, blocking: opGet}),
		{name: "core.nbget_coalesced", n: 20_000 / nbBatch, perIter: nbBatch, cols: ns | allocs | events,
			run: drvCore(coreOp{cached: true, coalesce: true, blocking: opNbGet8})},
		{name: "core.barrier", n: 500, cols: ns | allocs | events, run: drvCoreBarrier},
		{name: "core.new_runtime", n: 20, cols: ns | allocs | events, run: drvCoreNewRuntime},
		core2("get_cached_c", 20_000, coreOp{cached: true, cont: opGetC}),
		core2("get_uncached_c", 20_000, coreOp{cont: opGetC}),
		core2("put_cached_c", 20_000, coreOp{cached: true, cont: opPutC}),
		core2("fetchadd_cached_c", 20_000, coreOp{cached: true, cont: opFetchAddC}),

		{name: "kv.get", n: 2_500, perIter: kvDriverThreads, cols: ns | allocs | events, run: drvKV(false, false)},
		{name: "kv.put", n: 2_500, perIter: kvDriverThreads, cols: ns | allocs | events, run: drvKV(true, false)},
		{name: "kv.get_c", n: 2_500, perIter: kvDriverThreads, cols: ns | allocs | events, run: drvKV(false, true)},
		{name: "kv.put_c", n: 2_500, perIter: kvDriverThreads, cols: ns | allocs | events, run: drvKV(true, true)},
	}
}
