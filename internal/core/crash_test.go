package core

import (
	"errors"
	"testing"

	"xlupc/internal/fault"
	"xlupc/internal/flight"
	"xlupc/internal/sim"
	"xlupc/internal/transport"
)

// crashCfg is cfg plus a crash schedule aggressive enough to fire
// several times inside the short test workloads (reliable delivery
// implied by Crash).
func crashCfg(prof *transport.Profile) Config {
	c := cfg(8, 4, prof, DefaultCache())
	c.Crash = &CrashConfig{CrashConfig: fault.CrashConfig{
		Prob: 0.6, Every: 100 * sim.Us,
		RestartMin: 30 * sim.Us, RestartMax: 80 * sim.Us,
		Horizon: 50 * sim.Ms, MaxPerNode: 2,
	}}
	return c
}

// crashWorkload writes a known pattern, then hammers it with randomly
// targeted reads from every thread. The returned checksum is a pure
// function of program semantics: it must not depend on whether (or
// when) nodes crash.
func crashWorkload(t *testing.T, c Config) (uint64, RunStats) {
	t.Helper()
	var sum uint64
	st := mustRun(t, c, func(th *Thread) {
		a := th.AllAlloc("A", 256, 8, 32)
		for j := int64(0); j < 256; j++ {
			if a.Owner(j) == th.ID() {
				th.PutUint64(a.At(j), uint64(j)*7+3)
			}
		}
		th.Barrier()
		var local uint64
		for i := 0; i < 200; i++ {
			j := int64(th.Rand().Intn(256))
			local += th.GetUint64(a.At(j)) ^ uint64(i)
		}
		th.Barrier()
		// Cross-thread rewrites across possible crash windows: the
		// idempotent value must land exactly once despite parked
		// retransmits and stale-NACK PUT retries.
		j := int64((th.ID()*37 + 11) % 256)
		th.PutUint64(a.At(j), uint64(j)*7+3)
		th.Barrier()
		if th.ID() == 0 {
			for j := int64(0); j < 256; j++ {
				if got := th.GetUint64(a.At(j)); got != uint64(j)*7+3 {
					t.Errorf("A[%d] = %d after crashes", j, got)
				}
			}
		}
		th.Barrier()
		sum += local
	})
	return sum, st
}

// Crashes must be invisible to program semantics: the checksum of a
// crash-riddled run equals the fault-free run's, on both transports,
// and the recovery machinery demonstrably fired.
func TestCrashRunHealsWithIdenticalResults(t *testing.T) {
	for _, prof := range []*transport.Profile{transport.GM(), transport.LAPI()} {
		t.Run(prof.Name, func(t *testing.T) {
			clean, cst := crashWorkload(t, cfg(8, 4, prof, DefaultCache()))
			if cst.Flight[flight.KindCrash] != 0 {
				t.Fatalf("fault-free run recorded %d crashes", cst.Flight[flight.KindCrash])
			}
			sum, st := crashWorkload(t, crashCfg(prof))
			if sum != clean {
				t.Fatalf("crash run checksum %d, fault-free %d", sum, clean)
			}
			if st.Flight[flight.KindCrash] == 0 {
				t.Fatal("crash schedule never fired; parameters too timid")
			}
			if st.Flight[flight.KindCrashDrop] == 0 {
				t.Fatal("no arrivals dropped at a down NIC")
			}
			if st.Flight[flight.KindStaleNack] == 0 || st.StaleInvalidated == 0 {
				t.Fatalf("stale-epoch path not exercised: %d nacks, %d invalidated",
					st.Flight[flight.KindStaleNack], st.StaleInvalidated)
			}
			if st.Flight[flight.KindRestart] == 0 || st.RecoveryTime <= 0 {
				t.Fatalf("no recovery recorded: %d recovered, %v recovery time",
					st.Flight[flight.KindRestart], st.RecoveryTime)
			}
		})
	}
}

// Two crash runs with the same seed must be identical in every
// virtual-time metric; a different seed must reshuffle the schedule.
func TestCrashDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) (uint64, RunStats) {
		c := crashCfg(transport.GM())
		c.Seed = seed
		return crashWorkload(t, c)
	}
	sa, a := run(3)
	sb, b := run(3)
	if sa != sb || a.Elapsed != b.Elapsed || a.Flight != b.Flight || a.StaleInvalidated != b.StaleInvalidated ||
		a.RecoveryTime != b.RecoveryTime || a.Messages != b.Messages {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
	_, c := run(4)
	if c.Elapsed == a.Elapsed && c.Flight[flight.KindCrash] == a.Flight[flight.KindCrash] && c.Flight[flight.KindStaleNack] == a.Flight[flight.KindStaleNack] {
		t.Fatal("different seed produced an identical crash run")
	}
}

// CrashFail mode must surface the first stale operation as a typed
// *CrashError naming the node, incarnation and operation — a clean
// abort, not a hang or a generic failure.
func TestCrashFailModeReturnsTypedError(t *testing.T) {
	c := crashCfg(transport.GM())
	c.Crash.Mode = CrashFail
	rt, err := NewRuntime(c)
	if err != nil {
		t.Fatal(err)
	}
	_, err = rt.Run(func(th *Thread) {
		a := th.AllAlloc("A", 256, 8, 32)
		for j := int64(0); j < 256; j++ {
			if a.Owner(j) == th.ID() {
				th.PutUint64(a.At(j), uint64(j))
			}
		}
		th.Barrier()
		for i := 0; i < 200; i++ {
			th.GetUint64(a.At(int64(th.Rand().Intn(256))))
		}
		th.Barrier()
	})
	var ce *CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CrashError, got %v", err)
	}
	if ce.Node < 0 || ce.Node >= c.Nodes || ce.Epoch == 0 {
		t.Fatalf("implausible crash error: %+v", ce)
	}
	if ce.Op != "get" && ce.Op != "put" {
		t.Fatalf("crash error op %q", ce.Op)
	}
}

// An inactive crash configuration must be free: with the schedule
// present but Prob 0, the run is indistinguishable (to virtual time and
// traffic) from the same run with Crash nil.
func TestInactiveCrashConfigIsFree(t *testing.T) {
	rc := transport.DefaultRelConfig()
	base := cfg(8, 4, transport.GM(), DefaultCache())
	base.Rel = &rc
	cleanSum, cleanSt := crashWorkload(t, base)

	off := base
	off.Crash = &CrashConfig{} // present but Prob 0: never active
	sum, st := crashWorkload(t, off)
	if sum != cleanSum {
		t.Fatalf("checksum changed: %d vs %d", sum, cleanSum)
	}
	if st.Elapsed != cleanSt.Elapsed || st.Messages != cleanSt.Messages ||
		st.NetBytes != cleanSt.NetBytes || st.RDMAOps != cleanSt.RDMAOps {
		t.Fatalf("inactive crash config perturbed the run:\n%+v\n%+v", st, cleanSt)
	}
	if st.Flight[flight.KindCrash] != 0 || st.Flight[flight.KindStaleNack] != 0 || st.Flight[flight.KindPark] != 0 {
		t.Fatalf("inactive crash config did crash work: %+v", st)
	}
}

// A stale-epoch NACK must heal on a node that has no address cache too:
// the rendezvous leg of a large transfer goes one-sided with the base
// the RTR carried, so a target restart between the RTR and the transfer
// NACKs it stale whether or not the initiator caches anything. Each
// thread round-trips a block no other thread writes, so the final array
// must equal its initial fill.
func TestStaleNackWithoutCache(t *testing.T) {
	const threads, nodes, rounds = 8, 4, 40
	prof := transport.GM()
	elems := int64(4 * prof.EagerMax / 8) // per block: four times the eager limit
	fill := func(th, i int64) uint64 { return uint64(th)<<32 | uint64(i)*2654435761 }
	for _, dir := range []string{"get", "put"} {
		var stale int64
		for seed := int64(1); seed <= 8; seed++ {
			c := cfg(threads, nodes, prof, NoCache())
			c.Seed = seed
			c.Crash = &CrashConfig{CrashConfig: fault.CrashConfig{
				Prob: 0.5, Every: 100 * sim.Us,
				RestartMin: 10 * sim.Us, RestartMax: 30 * sim.Us,
				Horizon: 50 * sim.Ms,
			}}
			st := mustRun(t, c, func(th *Thread) {
				a := th.AllAlloc("A", threads*elems, 8, elems)
				own := make([]byte, elems*8)
				for i := int64(0); i < elems; i++ {
					byteOrder.PutUint64(own[i*8:], fill(int64(th.ID()), i))
				}
				th.PutBulk(a.At(int64(th.ID())*elems), own)
				th.Barrier()
				// The block of a thread on the next node, which only this
				// thread touches from here on.
				peer := int64((th.ID() + threads/nodes) % threads)
				want := make([]byte, elems*8)
				for i := int64(0); i < elems; i++ {
					byteOrder.PutUint64(want[i*8:], fill(peer, i))
				}
				buf := make([]byte, elems*8)
				for r := 0; r < rounds; r++ {
					if dir == "get" {
						th.GetBulk(buf, a.At(peer*elems))
						if string(buf) != string(want) {
							t.Errorf("%s seed %d: thread %d round %d read a corrupt block", dir, seed, th.ID(), r)
							break
						}
					} else {
						th.PutBulk(a.At(peer*elems), want)
						th.Fence()
					}
				}
				th.Barrier()
				th.GetBulk(buf, a.At(int64(th.ID())*elems))
				if string(buf) != string(own) {
					t.Errorf("%s seed %d: block of thread %d differs from its initial fill", dir, seed, th.ID())
				}
				th.Barrier()
			})
			stale += st.Flight[flight.KindStaleNack]
			if st.Flight[flight.KindCrash] == 0 {
				t.Errorf("%s seed %d: crash schedule never fired", dir, seed)
			}
		}
		if stale == 0 {
			t.Errorf("%s: no stale NACK in eight seeds; the path under test never ran", dir)
		}
	}
}
