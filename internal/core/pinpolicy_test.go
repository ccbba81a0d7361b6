package core

import (
	"fmt"
	"testing"

	"xlupc/internal/flight"
	"xlupc/internal/mem"
	"xlupc/internal/transport"
)

// Under the limited-pinning policy with a registration budget smaller
// than the working set, regions are deregistered behind the caches'
// backs; the NACK/fallback protocol must keep every access correct.
func TestPinLimitedIntegrityUnderEviction(t *testing.T) {
	const threads, nodes, arrays, elems = 8, 4, 6, 64
	c := cfg(threads, nodes, transport.GM(), DefaultCache())
	// Budget fits roughly two chunks per node, forcing constant
	// eviction churn across the six arrays.
	chunk := NewLayout(threads, threads/nodes, 8, elems/threads, elems).NodeChunkBytes()
	c.Pin = &PinConfig{Policy: mem.PinLimited, MaxTotal: int(2*chunk) + 1}

	mustRun(t, c, func(th *Thread) {
		var as []*SharedArray
		for i := 0; i < arrays; i++ {
			a := th.AllAlloc(fmt.Sprintf("A%d", i), elems, 8, elems/threads)
			for j := int64(0); j < elems; j++ {
				if a.Owner(j) == th.ID() {
					th.PutUint64(a.At(j), uint64(i*1000+int(j)))
				}
			}
			as = append(as, a)
		}
		th.Barrier()
		// Rotate reads across all arrays several times so cached base
		// addresses go stale repeatedly.
		for round := 0; round < 3; round++ {
			for i, a := range as {
				for j := int64(0); j < elems; j += 7 {
					want := uint64(i*1000 + int(j))
					if got := th.GetUint64(a.At(j)); got != want {
						t.Errorf("round %d: A%d[%d] = %d, want %d", round, i, j, got, want)
					}
				}
			}
		}
		th.Barrier()
	})
}

func TestPinLimitedActuallyEvictsAndRecovers(t *testing.T) {
	const threads, nodes, arrays, elems = 4, 2, 4, 32
	c := cfg(threads, nodes, transport.GM(), DefaultCache())
	chunk := NewLayout(threads, threads/nodes, 8, elems/threads, elems).NodeChunkBytes()
	c.Pin = &PinConfig{Policy: mem.PinLimited, MaxTotal: int(chunk) + 1} // one chunk at a time
	rt, err := NewRuntime(c)
	if err != nil {
		t.Fatal(err)
	}
	_, err = rt.Run(func(th *Thread) {
		var as []*SharedArray
		for i := 0; i < arrays; i++ {
			a := th.AllAlloc(fmt.Sprintf("A%d", i), elems, 8, elems/threads)
			// Element 17 lives in block 2 → thread 2 → node 1: remote
			// for the thread-0 reader below.
			if a.Owner(17) == th.ID() {
				th.PutUint64(a.At(17), uint64(100+i))
			}
			as = append(as, a)
		}
		th.Barrier()
		if th.ID() == 0 {
			for round := 0; round < 3; round++ {
				for i, a := range as {
					if got := th.GetUint64(a.At(17)); got != uint64(100+i) {
						t.Errorf("A%d[17] = %d", i, got)
					}
				}
			}
		}
		th.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if rt.M.FR.Total(flight.KindPinEvict) == 0 {
		t.Fatal("no evictions occurred; the test exercised nothing")
	}
}

// NACKed RDMA PUTs must retry over the AM path and still satisfy the
// fence: data lands before the barrier completes.
func TestPinLimitedPutNackRetries(t *testing.T) {
	const threads, nodes, arrays, elems = 4, 2, 4, 32
	c := cfg(threads, nodes, transport.GM(), DefaultCache())
	c.Cache.PutMode = PutCacheOn
	chunk := NewLayout(threads, threads/nodes, 8, elems/threads, elems).NodeChunkBytes()
	c.Pin = &PinConfig{Policy: mem.PinLimited, MaxTotal: int(chunk) + 1}
	mustRun(t, c, func(th *Thread) {
		var as []*SharedArray
		for i := 0; i < arrays; i++ {
			as = append(as, th.AllAlloc(fmt.Sprintf("A%d", i), elems, 8, elems/threads))
		}
		th.Barrier()
		if th.ID() == 0 {
			// Populate the cache for every array (round 1), then PUT
			// through stale entries (round 2): most registrations have
			// been evicted by later arrays, forcing NACK retries.
			// Element 17 is remote for thread 0 (block 2 → node 1).
			for _, a := range as {
				th.GetUint64(a.At(17))
			}
			for i, a := range as {
				th.PutUint64(a.At(17), uint64(7000+i))
			}
		}
		th.Barrier() // fence inside must cover the retried PUTs
		if th.ID() == 0 {
			for i, a := range as {
				if got := th.GetUint64(a.At(17)); got != uint64(7000+i) {
					t.Errorf("A%d[17] = %d after NACK retry", i, got)
				}
			}
		}
		th.Barrier()
	})
}

// The GET-side mirror of the PUT NACK test: cached GETs through stale
// entries must be NACKed by the deregistered target, invalidate the
// stale cache entry, fall back to the AM path, and still return the
// right data.
func TestPinLimitedGetNackFallsBack(t *testing.T) {
	const threads, nodes, arrays, elems = 4, 2, 4, 32
	c := cfg(threads, nodes, transport.GM(), DefaultCache())
	chunk := NewLayout(threads, threads/nodes, 8, elems/threads, elems).NodeChunkBytes()
	c.Pin = &PinConfig{Policy: mem.PinLimited, MaxTotal: int(chunk) + 1}
	st := mustRun(t, c, func(th *Thread) {
		var as []*SharedArray
		for i := 0; i < arrays; i++ {
			a := th.AllAlloc(fmt.Sprintf("A%d", i), elems, 8, elems/threads)
			// Element 17 is remote for thread 0 (block 2 → node 1).
			if a.Owner(17) == th.ID() {
				th.PutUint64(a.At(17), uint64(500+i))
			}
			as = append(as, a)
		}
		th.Barrier()
		if th.ID() == 0 {
			// Round 1 populates the cache per array; allocating and
			// touching the later arrays evicts the earlier pins, so
			// round 2's RDMA fast path hits deregistered regions.
			for round := 0; round < 2; round++ {
				for i, a := range as {
					if got := th.GetUint64(a.At(17)); got != uint64(500+i) {
						t.Errorf("round %d: A%d[17] = %d", round, i, got)
					}
				}
			}
		}
		th.Barrier()
	})
	if st.RDMANacks == 0 {
		t.Fatal("no GET was NACKed; the fallback path went unexercised")
	}
	if st.Cache.Invalidations == 0 {
		t.Fatal("NACKs occurred but no stale cache entry was invalidated")
	}
	if st.Flight[flight.KindPinEvict] == 0 {
		t.Fatal("registration budget never forced an eviction")
	}
}

// A per-object registration limit (the 32 MB LAPI handle cap) makes an
// oversized array permanently uncacheable: every access falls back to
// the AM path, correctly, and the cache never stores an entry for it.
func TestPerObjectLimitFallsBackForever(t *testing.T) {
	const threads, nodes, elems = 4, 2, 64
	c := cfg(threads, nodes, transport.LAPI(), DefaultCache())
	c.Pin = &PinConfig{Policy: mem.PinAll, MaxPerObject: 64} // absurdly small
	rt, err := NewRuntime(c)
	if err != nil {
		t.Fatal(err)
	}
	_, err = rt.Run(func(th *Thread) {
		a := th.AllAlloc("big", elems, 8, elems/threads)
		// Element 40 is in block 2 (thread 2, node 1): remote for
		// threads on node 0.
		if a.Owner(40) == th.ID() {
			th.PutUint64(a.At(40), 4242)
		}
		th.Barrier()
		for i := 0; i < 3; i++ {
			if got := th.GetUint64(a.At(40)); got != 4242 {
				t.Errorf("big[40] = %d", got)
			}
		}
		th.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, ns := range rt.nodes {
		if ns.cache.Len() != 0 {
			t.Fatalf("node %d cached an unpinnable object", ns.id)
		}
		if ns.tn.Pins.Live() != 0 {
			t.Fatalf("node %d pinned an over-limit object", ns.id)
		}
	}
}

// The ablation claim ([10]): limited pinning performs like
// pin-everything while the working set fits.
func TestPinPoliciesEquivalentWhenFitting(t *testing.T) {
	run := func(policy mem.PinPolicy) int64 {
		c := cfg(8, 4, transport.GM(), DefaultCache())
		c.Pin = &PinConfig{Policy: policy} // profile limits: plenty
		st := mustRun(t, c, func(th *Thread) {
			a := th.AllAlloc("A", 256, 8, 32)
			th.Barrier()
			for i := 0; i < 50; i++ {
				th.GetUint64(a.At(int64(th.Rand().Intn(256))))
			}
			th.Barrier()
		})
		return int64(st.Elapsed)
	}
	all, lim := run(mem.PinAll), run(mem.PinLimited)
	if all != lim {
		t.Fatalf("policies diverge with ample budget: pin-all %d vs limited %d", all, lim)
	}
}
