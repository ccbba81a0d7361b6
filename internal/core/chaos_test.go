package core

import (
	"errors"
	"testing"

	"xlupc/internal/fault"
	"xlupc/internal/sim"
	"xlupc/internal/transport"
)

// chaosCfg is cfg plus a fault configuration (reliable delivery
// implied).
func chaosCfg(fc fault.Config, prof *transport.Profile) Config {
	c := cfg(8, 4, prof, DefaultCache())
	c.Fault = &fc
	return c
}

// A lossy wire must not change program results: the same workload
// produces identical data and identical cache-correctness behaviour at
// any loss rate, on both transports.
func TestChaosRunStaysCorrect(t *testing.T) {
	workload := func(c Config) (sum uint64, st RunStats) {
		st = mustRun(t, c, func(th *Thread) {
			a := th.AllAlloc("A", 256, 8, 32)
			for j := int64(0); j < 256; j++ {
				if a.Owner(j) == th.ID() {
					th.PutUint64(a.At(j), uint64(j)*3+1)
				}
			}
			th.Barrier()
			var local uint64
			for i := 0; i < 120; i++ {
				j := int64(th.Rand().Intn(256))
				local += th.GetUint64(a.At(j)) ^ uint64(i)
			}
			// Cross-thread writes under faults: PUTs must land exactly
			// once despite duplication and retransmission.
			j := int64((th.ID()*37 + 11) % 256)
			th.PutUint64(a.At(j), uint64(j)*3+1) // idempotent rewrite
			th.Barrier()
			if th.ID() == 0 {
				for j := int64(0); j < 256; j++ {
					if got := th.GetUint64(a.At(j)); got != uint64(j)*3+1 {
						t.Errorf("A[%d] = %d after chaos", j, got)
					}
				}
			}
			th.Barrier()
			_ = local
		})
		return 0, st
	}
	for _, prof := range []*transport.Profile{transport.GM(), transport.LAPI()} {
		fc := fault.Config{Drop: 0.05, Corrupt: 0.02, Duplicate: 0.05, Delay: 0.1, DelayMax: 10 * sim.Us,
			StallEvery: sim.Ms, StallProb: 0.3, StallMax: 50 * sim.Us}
		_, st := workload(chaosCfg(fc, prof))
		if st.Fault.Drops == 0 || st.Rel.Retransmits == 0 {
			t.Fatalf("%s: hazards did not fire (drops %d, retx %d)", prof.Name, st.Fault.Drops, st.Rel.Retransmits)
		}
		if st.Fault.Dups > 0 && st.Rel.DupSuppressed == 0 {
			t.Fatalf("%s: duplicates delivered but none suppressed", prof.Name)
		}
	}
}

// Two runs with the same seed must be identical in every virtual-time
// metric; a different seed must reshuffle the injected hazards.
func TestChaosDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) RunStats {
		fc := fault.Config{Drop: 0.08, Duplicate: 0.08, Delay: 0.1, DelayMax: 8 * sim.Us}
		c := chaosCfg(fc, transport.GM())
		c.Seed = seed
		return mustRun(t, c, func(th *Thread) {
			a := th.AllAlloc("A", 128, 8, 16)
			th.Barrier()
			for i := 0; i < 80; i++ {
				th.GetUint64(a.At(int64(th.Rand().Intn(128))))
			}
			th.Barrier()
		})
	}
	a, b := run(3), run(3)
	if a.Elapsed != b.Elapsed || a.Fault.Drops != b.Fault.Drops || a.Rel.Retransmits != b.Rel.Retransmits ||
		a.Messages != b.Messages || a.Rel.DupSuppressed != b.Rel.DupSuppressed {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
	c := run(4)
	if c.Elapsed == a.Elapsed && c.Fault.Drops == a.Fault.Drops && c.Rel.Retransmits == a.Rel.Retransmits {
		t.Fatal("different seed produced an identical run")
	}
}

// A dead link must abort the run with a typed TransportError — clean
// shutdown, not a deadlock report or a hang.
func TestChaosDeadLinkFailsFast(t *testing.T) {
	fc := fault.Config{Drop: 1}
	c := chaosCfg(fc, transport.GM())
	c.Rel = &transport.RelConfig{RTO: 20 * sim.Us, MaxRetries: 3, HeaderBytes: 8}
	rt, err := NewRuntime(c)
	if err != nil {
		t.Fatal(err)
	}
	_, err = rt.Run(func(th *Thread) {
		a := th.AllAlloc("A", 64, 8, 8)
		th.Barrier()
		th.GetUint64(a.At(63)) // remote: can never complete
		th.Barrier()
	})
	var te *transport.TransportError
	if !errors.As(err, &te) {
		t.Fatalf("want TransportError, got %v", err)
	}
	if te.Attempts != 4 {
		t.Fatalf("attempts %d, want 4", te.Attempts)
	}
}

// The reliable layer alone (Rel set, no Fault) must deliver everything
// without a single retransmission and leave results untouched.
func TestRelWithoutFaultsIsQuiet(t *testing.T) {
	c := cfg(8, 4, transport.GM(), DefaultCache())
	rc := transport.DefaultRelConfig()
	c.Rel = &rc
	st := mustRun(t, c, func(th *Thread) {
		a := th.AllAlloc("A", 128, 8, 16)
		if a.Owner(64) == th.ID() {
			th.PutUint64(a.At(64), 4711)
		}
		th.Barrier()
		if got := th.GetUint64(a.At(64)); got != 4711 {
			t.Errorf("A[64] = %d", got)
		}
		th.Barrier()
	})
	if st.Rel.Retransmits != 0 || st.Fault.Drops != 0 || st.Rel.DupSuppressed != 0 {
		t.Fatalf("clean wire produced reliability work: %+v", st)
	}
	if st.Rel.Acks == 0 {
		t.Fatal("reliable layer sent no ACKs; it was not engaged")
	}
}
