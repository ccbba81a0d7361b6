package bench

import (
	"reflect"
	"runtime"
	"testing"

	"xlupc/internal/core"
	"xlupc/internal/fault"
	"xlupc/internal/flight"
	"xlupc/internal/transport"
)

func gupsOpts() GUPSOpts {
	return GUPSOpts{
		Scale: Scale{Threads: 8, Nodes: 4},
		Prof:  transport.GM(),
		Words: 64, Updates: 48,
	}
}

// TestGUPSDeterminism repeats one remote-atomic GUPS run with the same
// options and requires bit-identical results — checksum, virtual
// elapsed time, and every RunStats field — including across GOMAXPROCS
// settings.
func TestGUPSDeterminism(t *testing.T) {
	s := Sweep{Seed: 5}
	first := s.RunGUPS(GUPSAtomic, gupsOpts())
	for i := 0; i < 3; i++ {
		again := s.RunGUPS(GUPSAtomic, gupsOpts())
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("repeat %d diverged:\nfirst: %+v\nagain: %+v", i, first, again)
		}
	}
	prev := runtime.GOMAXPROCS(1)
	one := s.RunGUPS(GUPSAtomic, gupsOpts())
	runtime.GOMAXPROCS(8)
	many := s.RunGUPS(GUPSAtomic, gupsOpts())
	runtime.GOMAXPROCS(prev)
	if !reflect.DeepEqual(one, many) {
		t.Fatalf("GOMAXPROCS changed GUPS results:\n1:    %+v\nmany: %+v", one, many)
	}
}

// TestGUPSAtomicBeatsGetPut is the figure's acceptance claim: on both
// transports the one-message remote-atomic protocol finishes the
// update phase faster than blocking GET+compute+PUT, with identical
// workload checksums (GUPSSweep panics on divergence) and fewer
// messages on the wire.
func TestGUPSAtomicBeatsGetPut(t *testing.T) {
	// The second input is what `xlupc-micro -gups -seed 7` prints.
	cli := GUPSOpts{Scale: Scale{Threads: 8, Nodes: 4}, Words: 256, Updates: 96}
	for _, c := range []struct {
		s Sweep
		o GUPSOpts
	}{{Sweep{Seed: 5}, gupsOpts()}, {Sweep{Seed: 7}, cli}} {
		o := c.o
		for _, prof := range []*transport.Profile{transport.GM(), transport.LAPI()} {
			pts := c.s.GUPSSweep(prof, o.Scale, o)
			base, atomic := pts[0].Result, pts[2].Result
			if atomic.Elapsed >= base.Elapsed {
				t.Errorf("%s seed %d: atomic update phase %v not faster than getput %v",
					prof.Name, c.s.Seed, atomic.Elapsed, base.Elapsed)
			}
			if atomic.Run.Messages >= base.Run.Messages {
				t.Errorf("%s seed %d: atomic sent %d messages, getput %d — expected fewer",
					prof.Name, c.s.Seed, atomic.Run.Messages, base.Run.Messages)
			}
		}
	}
}

// TestGUPSAtomicExactlyOnceUnderLoss hammers one shared counter with
// remote FetchAdds over a wire dropping 5% of packets under the
// reliable layer. Exactly-once delivery means the counter lands on
// precisely threads x perThread — a duplicated retransmit would
// overshoot, a lost atomic would undershoot.
func TestGUPSAtomicExactlyOnceUnderLoss(t *testing.T) {
	const threads, perThread = 8, 40
	rel := transport.DefaultRelConfig()
	cfg := core.Config{
		Threads: threads, Nodes: 4,
		Profile: transport.GM(),
		Cache:   core.DefaultCache(),
		Seed:    17,
		Fault:   &fault.Config{Drop: 0.05},
		Rel:     &rel,
	}
	rt, err := core.NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var final uint64
	st, err := rt.Run(func(th *core.Thread) {
		a := th.AllAlloc("counter", int64(th.Threads()), 8, 1)
		th.Barrier()
		for i := 0; i < perThread; i++ {
			th.FetchAdd(a.At(0), 1)
		}
		th.Barrier()
		if th.ID() == 0 {
			final = th.GetUint64(a.At(0))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(threads * perThread); final != want {
		t.Errorf("counter = %d, want exactly %d (lost or duplicated atomics)", final, want)
	}
	if st.Flight[flight.KindRetransmit] == 0 {
		t.Error("no retransmits under 5%% loss: the test did not exercise the recovery path")
	}
	if st.AtomicOps+st.LocalAtomics == 0 {
		t.Error("no atomic ops recorded")
	}
}
