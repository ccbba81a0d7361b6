package core

import (
	"bytes"
	"fmt"
	"testing"

	"xlupc/internal/flight"
	"xlupc/internal/sim"
	"xlupc/internal/transport"
)

// coalCfg returns a runtime config with message coalescing enabled.
func coalCfg(threads, nodes int, prof *transport.Profile, cache CacheConfig) Config {
	c := cfg(threads, nodes, prof, cache)
	coal := transport.DefaultCoalConfig()
	c.Coalesce = &coal
	return c
}

// Split-phase GETs must return exactly what the blocking path returns —
// on both transports, with the cache on and off, with and without
// coalescing, across element sizes and batch shapes.
func TestNbGetMatchesBlocking(t *testing.T) {
	for _, prof := range []*transport.Profile{transport.GM(), transport.LAPI()} {
		for _, cc := range []CacheConfig{NoCache(), DefaultCache()} {
			for _, coal := range []bool{false, true} {
				name := fmt.Sprintf("%s/cache=%v/coal=%v", prof.Name, cc.Enabled, coal)
				t.Run(name, func(t *testing.T) {
					const threads, nodes, elems = 4, 2, 64
					c := cfg(threads, nodes, prof, cc)
					if coal {
						coalc := transport.DefaultCoalConfig()
						c.Coalesce = &coalc
					}
					mustRun(t, c, func(th *Thread) {
						a := th.AllAlloc("A", elems, 8, 8)
						for i := int64(0); i < elems; i++ {
							if a.Owner(i) == th.ID() {
								th.PutUint64(a.At(i), uint64(i)*31+uint64(th.ID()))
							}
						}
						th.Barrier()
						if th.ID() == 0 {
							want := make([]byte, elems*8)
							th.GetBulk(want, a.At(0))
							// Re-read split-phase, in batches of 8 elements
							// issued back to back before one SyncAll.
							got := make([]byte, elems*8)
							for base := 0; base < elems; base += 8 {
								th.NbGet(got[base*8:(base+8)*8], a.At(int64(base)))
							}
							th.SyncAll()
							if !bytes.Equal(got, want) {
								t.Error("split-phase GETs differ from blocking")
							}
						}
						th.Barrier()
					})
				})
			}
		}
	}
}

// Fence (and barrier, which implies it) retires every outstanding
// split-phase operation: un-synced NbGets must hold valid data after
// either.
func TestFenceRetiresOutstandingHandles(t *testing.T) {
	mustRun(t, coalCfg(2, 2, transport.GM(), DefaultCache()), func(th *Thread) {
		a := th.AllAlloc("A", 16, 8, 8)
		if a.Owner(12) == th.ID() {
			th.PutUint64(a.At(12), 777)
			th.PutUint64(a.At(13), 888)
		}
		th.Barrier()
		if th.ID() == 0 {
			dst := make([]byte, 8)
			th.NbGet(dst, a.At(12)) // never explicitly synced
			th.Fence()
			if got := byteOrder.Uint64(dst); got != 777 {
				t.Errorf("after fence, un-synced NbGet buffer = %d, want 777", got)
			}
			th.NbGet(dst, a.At(13)) // retired by the barrier below
			th.Barrier()
			if got := byteOrder.Uint64(dst); got != 888 {
				t.Errorf("after barrier, un-synced NbGet buffer = %d, want 888", got)
			}
		} else {
			th.Barrier()
		}
		th.Barrier()
	})
}

// Empty and fully local transfers complete at issue and leave nothing
// outstanding; SyncAll with nothing outstanding is free, and a second
// one is the same as the first.
func TestSyncEdgeCases(t *testing.T) {
	mustRun(t, cfg(2, 1, transport.GM(), NoCache()), func(th *Thread) {
		a := th.AllAlloc("A", 8, 8, 4)
		own := a.At(int64(th.ID()) * 4)
		th.PutUint64(own, 42+uint64(th.ID()))
		th.Barrier()
		th.NbGet(nil, a.At(0))
		if len(th.nbOut) != 0 {
			t.Error("empty NbGet left an operation outstanding")
		}
		dst := make([]byte, 8)
		th.NbGet(dst, own)
		if len(th.nbOut) != 0 {
			t.Error("fully local NbGet left an operation outstanding")
		}
		if got := byteOrder.Uint64(dst); got != 42+uint64(th.ID()) {
			t.Errorf("fully local NbGet read %d at issue, want %d", got, 42+th.ID())
		}
		t0 := th.Now()
		th.SyncAll()
		th.SyncAll()
		if th.Now() != t0 {
			t.Errorf("SyncAll with nothing outstanding took %v", th.Now()-t0)
		}
		th.Barrier()
	})
}

// With coalescing off (the default), the blocking paths are untouched:
// a blocking-only workload must take exactly the same virtual time
// whether or not a coalescing config is installed, because blocking
// operations never route through the buffers.
func TestBlockingUnaffectedByCoalesceConfig(t *testing.T) {
	run := func(c Config) sim.Time {
		st := mustRun(t, c, func(th *Thread) {
			a := th.AllAlloc("A", 128, 8, 8)
			th.Barrier()
			for i := 0; i < 30; i++ {
				idx := int64(th.Rand().Intn(128))
				th.GetUint64(a.At(idx))
				th.PutUint64(a.At(idx), uint64(i))
			}
			th.Fence()
			th.Barrier()
		})
		return st.Elapsed
	}
	plain := run(cfg(8, 4, transport.GM(), DefaultCache()))
	withCoal := run(coalCfg(8, 4, transport.GM(), DefaultCache()))
	if plain != withCoal {
		t.Fatalf("coalesce config changed a blocking-only run: %v vs %v", plain, withCoal)
	}
}

// Split-phase runs with coalescing are deterministic, and the coalesce
// counters reflect real batching: several messages per frame, zero when
// the feature is off.
func TestCoalesceStatsAndDeterminism(t *testing.T) {
	run := func(split bool) (sim.Time, RunStats) {
		c := cfg(4, 2, transport.LAPI(), DefaultCache())
		if split {
			coalc := transport.DefaultCoalConfig()
			c.Coalesce = &coalc
		}
		st := mustRun(t, c, func(th *Thread) {
			a := th.AllAlloc("A", 256, 8, 32)
			th.Barrier()
			dst := make([]byte, 8)
			for i := 0; i < 40; i++ {
				idx := int64((th.ID()*67 + i*13) % 256)
				if split {
					th.NbGet(dst, a.At(idx))
					if i%8 == 7 {
						th.SyncAll()
					}
				} else {
					th.GetBulk(dst, a.At(idx)) // blocking baseline
				}
			}
			th.SyncAll()
			th.Barrier()
		})
		return st.Elapsed, st
	}
	tOff, stOff := run(false)
	tOn, stOn := run(true)
	tOn2, _ := run(true)
	if tOn != tOn2 {
		t.Fatalf("coalesced run non-deterministic: %v vs %v", tOn, tOn2)
	}
	if stOff.Coal.Msgs != 0 || stOff.Flight[flight.KindCoalFlush] != 0 {
		t.Fatalf("coalesce counters nonzero with feature off: %+v", stOff)
	}
	if stOn.Coal.Msgs == 0 || stOn.Flight[flight.KindCoalFlush] == 0 {
		t.Fatalf("no coalescing recorded: msgs=%d frames=%d", stOn.Coal.Msgs, stOn.Flight[flight.KindCoalFlush])
	}
	if stOn.Flight[flight.KindCoalFlush] >= stOn.Coal.Msgs {
		t.Fatalf("no batching: %d frames for %d messages", stOn.Flight[flight.KindCoalFlush], stOn.Coal.Msgs)
	}
	if !(tOn < tOff) {
		t.Fatalf("coalesced split-phase not faster than blocking: on=%v off=%v", tOn, tOff)
	}
}
