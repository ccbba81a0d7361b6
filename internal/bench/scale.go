package bench

// Big-scale sweep: a Figure-8-style pointer-chase point sized for tens
// of thousands of threads, used to measure the simulator's own cost.
// The workload is deliberately not one of the dis stressmarks: their
// initialisation loops scan the whole array per thread (O(threads²)
// total), which is fine at benchmark scale but unusable at 32k
// threads. Here each thread owns exactly one contiguous block and
// initialises only that, so setup is O(total elements) and the run is
// dominated by the remote GET fast path. The body is written in
// continuation-passing style and runs under RunCont: a coroutine stack
// per thread is what bounds the thread count, and reaching 32k–128k
// threads is this point's purpose.

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"xlupc/internal/core"
	"xlupc/internal/sim"
	"xlupc/internal/transport"
)

// The big-scale workload's sizes, on the GM profile. 256 hops amortize
// the Nodes compulsory cache misses each initiator node pays, so the
// sweep's steady state is the cached one-sided RDMA path the figure is
// about, not the cold-start eager-AM transient.
const (
	// bigElemsPerThread is the owned block length (8-byte elements).
	bigElemsPerThread = 32
	// bigHops is the pointer-chase length per thread.
	bigHops = 256
)

// BigScale is the checked-in Figure-8-style sweep point: 32k threads
// across 1k nodes.
func BigScale() Scale { return Scale{Threads: 32768, Nodes: 1024} }

// bigHash is splitmix64 — the same mixer the dis package uses, inlined
// here so the workload is self-contained.
func bigHash(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// bigBodyC is the workload: fill the owned block, barrier, chase
// bigHops pointers (mostly remote GETs), barrier.
func (s Sweep) bigBodyC(t *core.Thread, done func(uint64)) {
	n := bigElemsPerThread * int64(t.Threads())
	t.AllAllocC("big", n, 8, bigElemsPerThread, func(a *core.SharedArray) {
		lo := int64(t.ID()) * bigElemsPerThread
		i := int64(0)
		sim.Loop(func(next func()) {
			if i == bigElemsPerThread {
				t.BarrierC(func() { bigChase(t, a, done) })
				return
			}
			idx := lo + i
			i++
			t.PutUint64C(a.At(idx), bigHash(uint64(idx)^uint64(s.Seed))%uint64(n), next)
		})
	})
}

// bigChase drives the pointer chase with a single self-recursive step
// closure per thread — no per-hop closures, so the chase itself adds
// nothing to the allocation profile it measures.
func bigChase(t *core.Thread, a *core.SharedArray, done func(uint64)) {
	n := bigElemsPerThread * int64(t.Threads())
	pos := int64(bigHash(uint64(t.ID())^0xB16) % uint64(n))
	var check uint64
	h := 0
	var step func(v uint64)
	step = func(v uint64) {
		check ^= v + uint64(h)
		h++
		pos = int64(v)
		if h == bigHops {
			t.BarrierC(func() { done(check) })
			return
		}
		t.GetUint64C(a.At(pos), step)
	}
	t.GetUint64C(a.At(pos), step)
}

// ScalePoint is one big-scale measurement: the virtual result plus the
// host cost of computing it.
type ScalePoint struct {
	Threads      int
	Nodes        int
	Elapsed      sim.Time
	KernelEvents int64
	Checksum     uint64

	Wall           time.Duration
	EventsPerSec   float64
	AllocsPerEv    float64 // host heap allocations per kernel event
	BytesPerThread float64 // host bytes allocated per simulated thread
}

// ScaleMark runs the big-scale workload once on machine sc and measures
// the host cost (wall clock, allocations) of the run.
//
// A chase over the whole array touches every node, so a cache capacity
// below Nodes would thrash and push the steady state onto the eager AM
// path; the per-node address cache holds Nodes entries (one per
// (array, target) pair) so the measured regime is the cached RDMA fast
// path, as in the paper's large-configuration runs.
func (s Sweep) ScaleMark(sc Scale) (ScalePoint, error) {
	cache := core.DefaultCache()
	cache.Capacity = sc.Nodes
	cfg := core.Config{
		Threads: sc.Threads, Nodes: sc.Nodes, Profile: transport.GM(),
		Cache: cache, Seed: s.Seed,
	}
	rt, err := core.NewRuntime(cfg)
	if err != nil {
		return ScalePoint{}, err
	}
	checks := make([]uint64, sc.Threads)

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	st, err := rt.RunCont(func(t *core.Thread, done func()) {
		s.bigBodyC(t, func(c uint64) {
			checks[t.ID()] = c
			done()
		})
	})
	wall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return ScalePoint{}, err
	}

	var check uint64
	for i, c := range checks {
		check ^= bigHash(c + uint64(i))
	}
	sp := ScalePoint{
		Threads: sc.Threads, Nodes: sc.Nodes,
		Elapsed:      st.Elapsed,
		KernelEvents: st.KernelEvents,
		Checksum:     check,
		Wall:         wall,
	}
	if st.KernelEvents > 0 {
		ev := float64(st.KernelEvents)
		if s := wall.Seconds(); s > 0 {
			sp.EventsPerSec = ev / s
		}
		sp.AllocsPerEv = float64(m1.Mallocs-m0.Mallocs) / ev
	}
	if sc.Threads > 0 {
		sp.BytesPerThread = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(sc.Threads)
	}
	return sp, nil
}

// PrintScale runs the big-scale point on machine sc and prints its
// virtual columns beside the host cost: events/sec, allocs per event and
// bytes per thread.
func (s Sweep) PrintScale(w io.Writer, sc Scale) (ScalePoint, error) {
	fmt.Fprintf(w, "# Big-scale sweep — gm, %d threads / %d nodes, %d elems/thread, %d hops (host columns vary with machine load)\n",
		sc.Threads, sc.Nodes, bigElemsPerThread, bigHops)
	fmt.Fprintf(w, "%12s %12s %17s | %10s %12s %10s %12s\n",
		"virt-time", "events", "checksum", "wall", "events/s", "allocs/ev", "bytes/thread")
	sp, err := s.ScaleMark(sc)
	if err != nil {
		return sp, err
	}
	fmt.Fprintf(w, "%12v %12d %17x | %10v %12.0f %10.2f %12.0f\n",
		sp.Elapsed, sp.KernelEvents, sp.Checksum,
		sp.Wall.Round(time.Millisecond), sp.EventsPerSec, sp.AllocsPerEv, sp.BytesPerThread)
	return sp, nil
}
