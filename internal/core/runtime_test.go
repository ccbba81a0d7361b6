package core

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"xlupc/internal/fault"
	"xlupc/internal/mem"
	"xlupc/internal/sim"
	"xlupc/internal/telemetry"
	"xlupc/internal/trace"
	"xlupc/internal/transport"
)

func cfg(threads, nodes int, prof *transport.Profile, cache CacheConfig) Config {
	return Config{Threads: threads, Nodes: nodes, Profile: prof, Cache: cache, Seed: 42}
}

func mustRun(t *testing.T, c Config, body func(th *Thread)) RunStats {
	t.Helper()
	rt, err := NewRuntime(c)
	if err != nil {
		t.Fatal(err)
	}
	st, err := rt.Run(body)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return st
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewRuntime(Config{Threads: 4, Nodes: 2}); err == nil {
		t.Fatal("missing profile accepted")
	}
	if _, err := NewRuntime(cfg(5, 2, transport.GM(), NoCache())); err == nil {
		t.Fatal("non-divisible threads accepted")
	}
	if _, err := NewRuntime(cfg(0, 0, transport.GM(), NoCache())); err == nil {
		t.Fatal("zero sizes accepted")
	}
}

// Every thread writes its own elements, then everyone reads everything
// back — with and without the cache, on both transports. Data
// integrity must hold in all four worlds.
func TestPutGetIntegrity(t *testing.T) {
	for _, prof := range []*transport.Profile{transport.GM(), transport.LAPI()} {
		for _, cc := range []CacheConfig{NoCache(), DefaultCache()} {
			name := fmt.Sprintf("%s/cache=%v", prof.Name, cc.Enabled)
			t.Run(name, func(t *testing.T) {
				const threads, nodes, elems = 8, 4, 64
				mustRun(t, cfg(threads, nodes, prof, cc), func(th *Thread) {
					a := th.AllAlloc("A", elems, 8, 4)
					for i := int64(0); i < elems; i++ {
						if a.Owner(i) == th.ID() {
							th.PutUint64(a.At(i), uint64(i)*1000+uint64(th.ID()))
						}
					}
					th.Barrier()
					for i := int64(0); i < elems; i++ {
						want := uint64(i)*1000 + uint64(a.Owner(i))
						if got := th.GetUint64(a.At(i)); got != want {
							t.Errorf("thread %d: A[%d] = %d, want %d", th.ID(), i, got, want)
						}
					}
				})
			})
		}
	}
}

func TestBulkTransfersSplitCorrectly(t *testing.T) {
	const threads, nodes, elems = 4, 2, 100
	mustRun(t, cfg(threads, nodes, transport.GM(), DefaultCache()), func(th *Thread) {
		a := th.AllAlloc("A", elems, 1, 7) // 1-byte elements, block 7
		if th.ID() == 0 {
			src := make([]byte, elems)
			for i := range src {
				src[i] = byte(i * 3)
			}
			th.PutBulk(a.At(0), src) // spans every thread and node
			th.Fence()
			dst := make([]byte, elems)
			th.GetBulk(dst, a.At(0))
			if !bytes.Equal(dst, src) {
				t.Errorf("bulk roundtrip mismatch")
			}
			// Offset, non-aligned span.
			mid := make([]byte, 31)
			th.GetBulk(mid, a.At(13))
			if !bytes.Equal(mid, src[13:44]) {
				t.Errorf("offset bulk mismatch")
			}
		}
		th.Barrier()
	})
}

// A cached GET must be faster than the same GET uncached, and the
// second access must hit.
func TestCacheHitSpeedsUpGet(t *testing.T) {
	latency := func(cc CacheConfig) (first, second sim.Time, st RunStats) {
		st = mustRun(t, cfg(2, 2, transport.GM(), cc), func(th *Thread) {
			a := th.AllAlloc("A", 64, 8, 32) // elements 32.. on thread 1/node 1
			th.Barrier()
			if th.ID() == 0 {
				t0 := th.Now()
				th.GetUint64(a.At(40))
				first = th.Now() - t0
				t0 = th.Now()
				th.GetUint64(a.At(41))
				second = th.Now() - t0
			}
			th.Barrier()
		})
		return
	}
	f0, s0, st0 := latency(NoCache())
	f1, s1, st1 := latency(DefaultCache())
	if st0.Cache.Lookups() != 0 {
		t.Fatal("baseline performed cache lookups")
	}
	if st1.Cache.Hits < 1 {
		t.Fatalf("expected a hit, stats %+v", st1.Cache)
	}
	// First cached access misses (and pays pin+piggyback), so it is
	// not faster; the second must be significantly faster than both
	// its own first and the uncached steady state.
	if !(s1 < s0) {
		t.Fatalf("cached steady GET %v not faster than uncached %v", s1, s0)
	}
	if !(s1 < f1) {
		t.Fatalf("hit %v not faster than miss %v", s1, f1)
	}
	// Uncached latencies are steady (after first-access pinning).
	if s0 > f0 {
		t.Logf("uncached: first %v, second %v", f0, s0)
	}
}

// GET roundtrips must land in the small-message envelope the paper
// reports (a few microseconds).
func TestGetLatencyEnvelope(t *testing.T) {
	for _, prof := range []*transport.Profile{transport.GM(), transport.LAPI()} {
		var lat sim.Time
		mustRun(t, cfg(2, 2, prof, NoCache()), func(th *Thread) {
			a := th.AllAlloc("A", 16, 8, 8)
			th.Barrier()
			if th.ID() == 0 {
				th.GetUint64(a.At(8)) // warm pin path (none without cache, but fair)
				t0 := th.Now()
				th.GetUint64(a.At(9))
				lat = th.Now() - t0
			}
			th.Barrier()
		})
		if lat < 3*sim.Us || lat > 20*sim.Us {
			t.Errorf("%s small GET latency %v outside 3–20us envelope", prof.Name, lat)
		}
	}
}

func TestLocalAccessesUseNoNetwork(t *testing.T) {
	st := mustRun(t, cfg(4, 1, transport.GM(), DefaultCache()), func(th *Thread) {
		a := th.AllAlloc("A", 64, 8, 4)
		for i := int64(0); i < 64; i++ {
			if a.Owner(i) == th.ID() {
				th.PutUint64(a.At(i), uint64(i))
			}
		}
		th.Barrier()
		for i := int64(0); i < 64; i++ {
			if th.GetUint64(a.At(i)) != uint64(i) {
				t.Errorf("A[%d] wrong", i)
			}
		}
	})
	if st.Messages != 0 {
		t.Fatalf("single-node run sent %d network messages", st.Messages)
	}
	if st.Gets != 0 || st.LocalGets == 0 {
		t.Fatalf("gets misclassified: remote=%d local=%d", st.Gets, st.LocalGets)
	}
}

func TestFreeInvalidatesCacheEverywhere(t *testing.T) {
	var entriesBefore, entriesAfter int
	mustRun(t, cfg(2, 2, transport.GM(), DefaultCache()), func(th *Thread) {
		a := th.AllAlloc("A", 32, 8, 16)
		th.Barrier()
		if th.ID() == 0 {
			th.GetUint64(a.At(20)) // populate cache for node 1's chunk
			th.GetUint64(a.At(21))
			entriesBefore = th.ns.cache.Len()
		}
		th.Barrier()
		if th.ID() == 0 {
			th.Free(a)
			entriesAfter = th.ns.cache.Len()
		}
		th.Barrier()
	})
	if entriesBefore != 1 {
		t.Fatalf("entries before free = %d, want 1", entriesBefore)
	}
	if entriesAfter != 0 {
		t.Fatalf("entries after free = %d, want 0 (eager invalidation)", entriesAfter)
	}
}

// After free + realloc reusing the same address, a correct runtime
// must never serve stale cached data.
func TestFreeReallocNoStaleCache(t *testing.T) {
	mustRun(t, cfg(2, 2, transport.GM(), DefaultCache()), func(th *Thread) {
		a := th.AllAlloc("A", 32, 8, 16)
		if a.Owner(20) == th.ID() {
			th.PutUint64(a.At(20), 111)
		}
		th.Barrier()
		if th.ID() == 0 {
			if got := th.GetUint64(a.At(20)); got != 111 {
				t.Errorf("A[20] = %d", got)
			}
			th.Free(a)
		}
		th.Barrier()
		b := th.AllAlloc("B", 32, 8, 16) // likely reuses A's chunks
		if b.Owner(20) == th.ID() {
			th.PutUint64(b.At(20), 222)
		}
		th.Barrier()
		if got := th.GetUint64(b.At(20)); got != 222 {
			t.Errorf("thread %d: B[20] = %d (stale data?)", th.ID(), got)
		}
		th.Barrier()
	})
}

func TestUseAfterFreePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected use-after-free panic")
		}
	}()
	rt, err := NewRuntime(cfg(2, 2, transport.GM(), DefaultCache()))
	if err != nil {
		t.Fatal(err)
	}
	_, _ = rt.Run(func(th *Thread) {
		a := th.AllAlloc("A", 32, 8, 16)
		th.Barrier()
		if th.ID() == 0 {
			th.Free(a)
			th.GetUint64(a.At(20))
		}
		th.Barrier()
	})
}

// A blocking method called from a RunCont body has no process to park:
// the panic must say so, and reach RunCont's caller like any other body
// panic.
func TestBlockingCallUnderRunContNamesItself(t *testing.T) {
	const want = "blocking call on a continuation-mode thread"
	for _, tc := range []struct {
		name string
		call func(th *Thread, a *SharedArray)
	}{
		{"GetUint64", func(th *Thread, a *SharedArray) { th.GetUint64(a.At(20)) }},
		{"AllReduceU64", func(th *Thread, _ *SharedArray) { th.AllReduceU64(1, ReduceSum) }},
		{"Sleep", func(th *Thread, _ *SharedArray) { th.Sleep(sim.Us) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); !strings.Contains(fmt.Sprint(r), want) {
					t.Fatalf("recovered %v, want a panic mentioning %q", r, want)
				}
			}()
			rt, err := NewRuntime(cfg(2, 2, transport.GM(), NoCache()))
			if err != nil {
				t.Fatal(err)
			}
			defer rt.K.Shutdown()
			_, _ = rt.RunCont(func(th *Thread, done func()) {
				th.AllAllocC("A", 32, 8, 16, func(a *SharedArray) {
					if th.ID() == 1 {
						tc.call(th, a)
					}
					done()
				})
			})
		})
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	const threads, nodes, rounds = 8, 4, 5
	counters := make([]int, threads)
	mustRun(t, cfg(threads, nodes, transport.GM(), NoCache()), func(th *Thread) {
		for r := 0; r < rounds; r++ {
			// Unequal work before the barrier.
			th.Compute(sim.Time(th.ID()+1) * 10 * sim.Us)
			counters[th.ID()]++
			th.Barrier()
			// After the barrier every thread must have finished round r.
			for id, c := range counters {
				if c < r+1 {
					t.Errorf("round %d: thread %d saw counter[%d]=%d", r, th.ID(), id, c)
				}
			}
			th.Barrier()
		}
	})
}

func TestBarrierSingleNode(t *testing.T) {
	mustRun(t, cfg(4, 1, transport.GM(), NoCache()), func(th *Thread) {
		for i := 0; i < 3; i++ {
			th.Barrier()
		}
	})
}

func TestBarrierImpliesFence(t *testing.T) {
	mustRun(t, cfg(2, 2, transport.GM(), NoCache()), func(th *Thread) {
		a := th.AllAlloc("A", 4, 8, 2)
		if th.ID() == 0 {
			th.PutUint64(a.At(2), 42) // remote, async
		}
		th.Barrier()
		if th.ID() == 1 {
			if got := th.GetUint64(a.At(2)); got != 42 {
				t.Errorf("A[2] = %d after barrier", got)
			}
		}
		th.Barrier()
	})
}

func TestDeterministicElapsed(t *testing.T) {
	run := func() sim.Time {
		st := mustRun(t, cfg(8, 4, transport.GM(), DefaultCache()), func(th *Thread) {
			a := th.AllAlloc("A", 256, 8, 8)
			th.Barrier()
			for i := 0; i < 50; i++ {
				idx := int64(th.Rand().Intn(256))
				th.GetUint64(a.At(idx))
			}
			th.Barrier()
		})
		return st.Elapsed
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic: %v vs %v", a, b)
	}
}

// Cache on vs off must not change program results, only timing — and
// with the cache on, a random-access workload must get faster.
func TestCacheImprovesRandomAccess(t *testing.T) {
	run := func(cc CacheConfig) (sim.Time, uint64) {
		var sum uint64
		st := mustRun(t, cfg(8, 4, transport.GM(), cc), func(th *Thread) {
			a := th.AllAlloc("A", 512, 8, 4)
			for i := int64(0); i < 512; i++ {
				if a.Owner(i) == th.ID() {
					th.PutUint64(a.At(i), uint64(i))
				}
			}
			th.Barrier()
			local := uint64(0)
			for i := 0; i < 100; i++ {
				idx := int64(th.Rand().Intn(512))
				local += th.GetUint64(a.At(idx))
			}
			th.Barrier()
			if th.ID() == 0 {
				sum = local
			}
		})
		return st.Elapsed, sum
	}
	tOff, sumOff := run(NoCache())
	tOn, sumOn := run(DefaultCache())
	if sumOff != sumOn {
		t.Fatalf("cache changed results: %d vs %d", sumOff, sumOn)
	}
	if !(tOn < tOff) {
		t.Fatalf("cache did not speed up random access: on=%v off=%v", tOn, tOff)
	}
}

func TestPinnedTablesStaySmall(t *testing.T) {
	// The paper (§4.5): ~10 pinned entries suffice for well-behaved
	// apps. Two arrays → at most 2 pinned regions per node.
	st := mustRun(t, cfg(4, 2, transport.GM(), DefaultCache()), func(th *Thread) {
		a := th.AllAlloc("A", 64, 8, 8)
		b := th.AllAlloc("B", 64, 8, 8)
		th.Barrier()
		for i := int64(0); i < 64; i++ {
			th.GetUint64(a.At(i))
			th.GetUint64(b.At(i))
		}
		th.Barrier()
	})
	if st.MaxLive > 2 {
		t.Errorf("a node pinned %d regions, want <= 2", st.MaxLive)
	}
}

func TestRunStatsCounts(t *testing.T) {
	st := mustRun(t, cfg(2, 2, transport.GM(), DefaultCache()), func(th *Thread) {
		a := th.AllAlloc("A", 32, 8, 16)
		th.Barrier()
		if th.ID() == 0 {
			th.GetUint64(a.At(20))
			th.PutUint64(a.At(20), 5)
		}
		th.Barrier()
	})
	if st.Gets != 1 || st.Puts != 1 {
		t.Fatalf("gets=%d puts=%d", st.Gets, st.Puts)
	}
	if st.Messages == 0 || st.NetBytes == 0 {
		t.Fatal("no traffic recorded")
	}
	if st.Elapsed <= 0 {
		t.Fatal("no elapsed time")
	}
}

// Rendezvous path: transfers beyond EagerMax must work and be
// reflected as RDMA ops.
func TestLargeTransferRendezvous(t *testing.T) {
	prof := transport.GM()
	size := int64(prof.EagerMax) + 4096
	st := mustRun(t, cfg(2, 2, prof, NoCache()), func(th *Thread) {
		a := th.AllAlloc("big", 2*size, 1, size) // thread 0 first half, thread 1 second
		th.Barrier()
		if th.ID() == 0 {
			src := make([]byte, size)
			for i := range src {
				src[i] = byte(i)
			}
			th.PutBulk(a.At(size), src) // rendezvous PUT to node 1
			th.Fence()
			dst := make([]byte, size)
			th.GetBulk(dst, a.At(size)) // rendezvous GET
			if !bytes.Equal(dst, src) {
				t.Error("large transfer corrupted")
			}
		}
		th.Barrier()
	})
	if st.RDMAOps < 2 {
		t.Fatalf("rendezvous should use RDMA, got %d ops", st.RDMAOps)
	}
}

// With a cache, the second large transfer skips the RTS/RTR roundtrip.
func TestRendezvousPopulatesCache(t *testing.T) {
	prof := transport.GM()
	size := int64(prof.EagerMax) + 4096
	var first, second sim.Time
	mustRun(t, cfg(2, 2, prof, DefaultCache()), func(th *Thread) {
		a := th.AllAlloc("big", 2*size, 1, size)
		th.Barrier()
		if th.ID() == 0 {
			buf := make([]byte, size)
			t0 := th.Now()
			th.GetBulk(buf, a.At(size))
			first = th.Now() - t0
			t0 = th.Now()
			th.GetBulk(buf, a.At(size))
			second = th.Now() - t0
		}
		th.Barrier()
	})
	if !(second < first) {
		t.Fatalf("second large GET %v not faster than first %v", second, first)
	}
}

// The inter-node phase is a dissemination barrier: ceil(log2 n) rounds,
// so its critical path grows with the round count, not with n.
func TestBarrierScalesLogarithmically(t *testing.T) {
	run := func(nodes int) sim.Time {
		st := mustRun(t, cfg(nodes, nodes, transport.GM(), NoCache()), func(th *Thread) {
			for i := 0; i < 4; i++ {
				th.Barrier()
			}
		})
		return st.Elapsed
	}
	// Completes, without deadlock, at sizes that are and are not powers
	// of two.
	for _, n := range []int{1, 5, 16} {
		run(n)
	}
	// 64 nodes take 6 rounds where 2 take 1: about 6x the time, far
	// from the 63x of a barrier that hears from every node in turn.
	two, many := run(2), run(64)
	if many > 8*two {
		t.Fatalf("barrier at 64 nodes took %v, more than 8x its %v at 2 nodes", many, two)
	}
}

func TestForAllCoversExactlyOwnedIndices(t *testing.T) {
	const threads, nodes, elems = 4, 2, 45
	visited := make([][]int64, threads)
	mustRun(t, cfg(threads, nodes, transport.GM(), NoCache()), func(th *Thread) {
		a := th.AllAlloc("A", elems, 8, 7)
		th.ForAll(a, func(i int64) {
			visited[th.ID()] = append(visited[th.ID()], i)
			if a.Owner(i) != th.ID() {
				t.Errorf("thread %d visited foreign index %d", th.ID(), i)
			}
		})
		th.Barrier()
	})
	seen := map[int64]bool{}
	for _, vs := range visited {
		for i := 1; i < len(vs); i++ {
			if vs[i] <= vs[i-1] {
				t.Fatalf("indices not ascending: %v", vs)
			}
		}
		for _, v := range vs {
			if seen[v] {
				t.Fatalf("index %d visited twice", v)
			}
			seen[v] = true
		}
	}
	if len(seen) != elems {
		t.Fatalf("covered %d indices, want %d", len(seen), elems)
	}
}

// Lock-free atomic increments must never lose updates, across nodes
// and transports — including LAPI, whose parallel AM handler contexts
// could otherwise interleave a read-modify-write.
func TestAtomicAddNoLostUpdates(t *testing.T) {
	for _, prof := range []*transport.Profile{transport.GM(), transport.LAPI()} {
		prof := prof
		t.Run(prof.Name, func(t *testing.T) {
			const threads, nodes, per = 8, 4, 25
			mustRun(t, cfg(threads, nodes, prof, DefaultCache()), func(th *Thread) {
				ctr := th.AllAlloc("ctr", 4, 8, 1) // counter on thread 0 + spares
				th.Barrier()
				for i := 0; i < per; i++ {
					th.FetchAdd(ctr.At(0), 1)
				}
				th.Barrier()
				if got := th.GetUint64(ctr.At(0)); got != threads*per {
					t.Errorf("thread %d: counter = %d, want %d", th.ID(), got, threads*per)
				}
				th.Barrier()
			})
		})
	}
}

func TestAtomicAddReturnsOldValue(t *testing.T) {
	mustRun(t, cfg(2, 2, transport.GM(), NoCache()), func(th *Thread) {
		a := th.AllAlloc("a", 2, 8, 1)
		th.Barrier()
		if th.ID() == 0 {
			// Element 1 is on thread/node 1: remote.
			if old := th.FetchAdd(a.At(1), 10); old != 0 {
				t.Errorf("first old = %d", old)
			}
			if old := th.FetchAdd(a.At(1), 5); old != 10 {
				t.Errorf("second old = %d", old)
			}
			if got := th.GetUint64(a.At(1)); got != 15 {
				t.Errorf("final = %d", got)
			}
		}
		th.Barrier()
	})
}

func TestAtomicAddLocalFastPath(t *testing.T) {
	st := mustRun(t, cfg(2, 1, transport.GM(), NoCache()), func(th *Thread) {
		a := th.AllAlloc("a", 2, 8, 1)
		th.Barrier()
		th.FetchAdd(a.At(int64(th.ID())), 1) // both elements node-local
		th.Barrier()
	})
	if st.Messages != 0 {
		t.Fatalf("local atomics sent %d messages", st.Messages)
	}
}

func TestRunTwiceRejected(t *testing.T) {
	rt, err := NewRuntime(cfg(2, 1, transport.GM(), NoCache()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(func(th *Thread) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(func(th *Thread) {}); err == nil {
		t.Fatal("second Run accepted")
	}
}

// Tracing integration: a traced run records the expected states with
// plausible durations and costs no virtual time.
func TestTraceIntegration(t *testing.T) {
	run := func(tel *telemetry.Telemetry) sim.Time {
		c := cfg(4, 2, transport.GM(), DefaultCache())
		c.Telemetry = tel
		st := mustRun(t, c, func(th *Thread) {
			a := th.AllAlloc("A", 32, 8, 8)
			th.Barrier()
			th.Compute(5 * sim.Us)
			if th.ID() == 0 {
				th.GetUint64(a.At(17)) // remote
				th.PutUint64(a.At(17), 1)
			}
			th.Barrier()
		})
		return st.Elapsed
	}
	tel := telemetry.New()
	traced := run(tel)
	untraced := run(nil)
	if traced != untraced {
		t.Fatalf("tracing changed virtual time: %v vs %v", traced, untraced)
	}
	totals := trace.FromSpans(tel).TotalByState()
	if totals[trace.StateCompute] < 4*5*sim.Us {
		t.Errorf("compute time %v under-recorded", totals[trace.StateCompute])
	}
	if totals[trace.StateGetWait] <= 0 {
		t.Error("no GET wait recorded")
	}
	if totals[trace.StatePut] <= 0 {
		t.Error("no PUT time recorded")
	}
	if totals[trace.StateBarrier] <= 0 {
		t.Error("no barrier time recorded")
	}
}

// Transfers exactly at the eager limit stay eager; one byte more goes
// rendezvous (and therefore RDMA even without a warm cache).
func TestEagerRendezvousBoundary(t *testing.T) {
	prof := transport.GM()
	rdmaOps := func(size int64) int64 {
		st := mustRun(t, cfg(2, 2, prof, NoCache()), func(th *Thread) {
			a := th.AllAlloc("A", 2*size, 1, size)
			th.Barrier()
			if th.ID() == 0 {
				buf := make([]byte, size)
				th.GetBulk(buf, a.At(size))
			}
			th.Barrier()
		})
		return st.RDMAOps
	}
	if n := rdmaOps(int64(prof.EagerMax)); n != 0 {
		t.Fatalf("transfer at the eager limit used RDMA (%d ops)", n)
	}
	if n := rdmaOps(int64(prof.EagerMax) + 1); n == 0 {
		t.Fatal("transfer over the eager limit did not use rendezvous RDMA")
	}
}

// goroutinesAtMost samples runtime.NumGoroutine until it is at most
// want, with settling retries (goroutine exits are asynchronous), and
// returns the last reading.
func goroutinesAtMost(want int) int {
	n := 0
	for try := 0; try < 100; try++ {
		runtime.GC()
		if n = runtime.NumGoroutine(); n <= want {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	return n
}

// TestNoServiceCoroutines checks the target side owns no goroutine: a
// runtime's AM dispatcher contexts are callback engines, so NewRuntime
// starts none, a RunCont program of AM GETs and user AMs runs on none
// at all, and a Run program on one per thread — not one per thread plus
// one per node per dispatcher context — on GM (one context per node)
// and LAPI (four).
func TestNoServiceCoroutines(t *testing.T) {
	const threads, nodes = 8, 4
	for _, prof := range []func() *transport.Profile{transport.GM, transport.LAPI} {
		p := prof()
		t.Run(p.Name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			newRT := func() *Runtime {
				rt, err := NewRuntime(cfg(threads, nodes, p, NoCache()))
				if err != nil {
					t.Fatal(err)
				}
				rt.HandleUser(userEcho, userEchoAM)
				return rt
			}

			rt := newRT()
			if n := goroutinesAtMost(base); n > base {
				t.Errorf("NewRuntime started %d goroutines", n-base)
			}
			peak := 0
			sample := func() { peak = max(peak, runtime.NumGoroutine()) }
			if _, err := rt.RunCont(func(th *Thread, done func()) {
				th.AllAllocC("A", 64, 8, 8, func(a *SharedArray) {
					rn := (th.Node() + 1) % nodes
					var reply [8]byte
					th.GetUint64C(a.At(int64(rn*16)), func(uint64) {
						th.CallAMC(a, rn, userEcho, 8, 0, 16, reply[:], "user", func(int) {
							sample()
							th.BarrierC(done)
						})
					})
				})
			}); err != nil {
				t.Fatal(err)
			}
			if peak > base {
				t.Errorf("RunCont ran on %d goroutines besides the test's", peak-base)
			}

			// Cached PUTs the target's pin table has deregistered since, or
			// that reach a restarted target, are NACKed and reissued over
			// the AM path: on no goroutine either.
			c := cfg(threads, nodes, p, DefaultCache())
			c.Cache.PutMode = PutCacheOn
			c.Pin = &PinConfig{Policy: mem.PinLimited, MaxTotal: int(NewLayout(threads, threads/nodes, 8, 8, 64).NodeChunkBytes()) + 1}
			c.Crash = &CrashConfig{CrashConfig: fault.CrashConfig{
				Prob: 0.1, Every: 50 * sim.Us, RestartMin: 20 * sim.Us, RestartMax: 40 * sim.Us,
				Horizon: 5 * sim.Ms,
			}}
			c.Telemetry = telemetry.New()
			rt, err := NewRuntime(c)
			if err != nil {
				t.Fatal(err)
			}
			peak = 0
			const arrays, rounds = 4, 3
			val := func(th *Thread, r, i int) uint64 { return uint64(th.ID()<<16 | r<<8 | i) }
			if _, err := rt.RunCont(func(th *Thread, done func()) {
				var as []*SharedArray
				// An element of a thread on the next node that only this
				// thread writes.
				e := int64((th.ID()+threads/nodes)%threads*8 + th.ID()%8)
				step, r := 0, 0
				sim.Loop(func(next func()) {
					sample()
					switch {
					case len(as) < arrays:
						th.AllAllocC(fmt.Sprintf("N%d", len(as)), 64, 8, 8, func(a *SharedArray) {
							as = append(as, a)
							next()
						})
					case r == rounds:
						th.BarrierC(func() {
							i := 0
							sim.Loop(func(next func()) {
								if i == arrays {
									th.BarrierC(done)
									return
								}
								th.GetUint64C(as[i].At(e), func(v uint64) {
									if want := val(th, rounds-1, i); v != want {
										t.Errorf("thread %d: N%d[%d] = %#x after the retries, want %#x", th.ID(), i, e, v, want)
									}
									i++
									next()
								})
							})
						})
					case step < arrays: // warm the cache, evicting the pins of the others
						step++
						th.GetUint64C(as[step-1].At(e), func(uint64) { next() })
					default: // PUT through the now stale entries
						i := step - arrays
						v := val(th, r, i)
						if step++; step == 2*arrays {
							step, r = 0, r+1
						}
						th.PutUint64C(as[i].At(e), v, func() { th.SleepC(20*sim.Us, next) })
					}
				})
			}); err != nil {
				t.Fatal(err)
			}
			retries := promSeriesValues(c.Telemetry.Snapshot())
			for _, reason := range []string{"nack", "stale_epoch"} {
				if retries[`xlupc_put_retries_total{reason="`+reason+`"}`] == 0 {
					t.Errorf("no PUT retried for reason %s: the path under test never ran", reason)
				}
			}
			if peak > base {
				t.Errorf("RunCont with retried PUTs ran on %d goroutines besides the test's", peak-base)
			}

			rt, peak = newRT(), 0
			mustRunRT(t, rt, func(th *Thread) {
				a := th.AllAlloc("A", 64, 8, 8)
				sample() // every thread is alive until the closing barrier
				rn := (th.Node() + 1) % nodes
				th.GetUint64(a.At(int64(rn * 16)))
				var reply [8]byte
				callAM(th, a, rn, 8, 0, reply[:])
				th.Barrier()
			})
			if peak > base+threads {
				t.Errorf("Run ran on %d goroutines besides the test's, want one per thread (%d)", peak-base, threads)
			}
		})
	}
}

// TestBlockingThreadStackFootprint checks that a blocking thread's
// coroutine holds only its program: every operation it awaits starts on
// the kernel's stack, so a thread parked in the middle of a remote GET
// keeps the goroutine's starting stack instead of one grown to fit the
// GET's ladder (cache probe, send, NIC, fabric, AM). With 1,024 threads
// parked mid-GET, the stacks in use grow by at most 2.5 KiB per thread
// over the run's start; when the ladders ran on the coroutines they
// grew by ≈3.9 KiB.
func TestBlockingThreadStackFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("1,024 coroutines")
	}
	const threads, nodes, elems = 1024, 16, 256
	const bound = 2560 // bytes of stack per thread
	rt, err := NewRuntime(cfg(threads, nodes, transport.GM(), NoCache()))
	if err != nil {
		t.Fatal(err)
	}
	var before, during runtime.MemStats
	inflight, sampled := 0, -1
	sample := func() {
		runtime.ReadMemStats(&during)
		sampled = inflight
	}
	runtime.ReadMemStats(&before)
	mustRunRT(t, rt, func(th *Thread) {
		a := th.AllAlloc("A", threads*elems, 8, elems)
		th.Barrier()
		buf := make([]byte, elems*8)
		if inflight++; inflight == threads {
			rt.K.After(0, sample) // once the last GET is parked too
		}
		th.GetBulk(buf, a.At(int64((th.ID()+threads/nodes)%threads*elems)))
		inflight--
	})
	if sampled != threads {
		t.Fatalf("%d of %d threads were mid-GET when the stacks were sampled", sampled, threads)
	}
	per := float64(during.StackInuse-before.StackInuse) / threads
	t.Logf("StackInuse grew %.0f bytes per parked thread", per)
	if per > bound {
		t.Errorf("StackInuse grew %.0f bytes per thread parked mid-GET, over %d: an awaited operation ran on its coroutine", per, bound)
	}
}

func mustRunRT(t *testing.T, rt *Runtime, body func(th *Thread)) {
	t.Helper()
	if _, err := rt.Run(body); err != nil {
		t.Fatalf("run: %v", err)
	}
}
