package core

import (
	"fmt"
	"reflect"
	"testing"

	"xlupc/internal/flight"
	"xlupc/internal/mem"
	"xlupc/internal/transport"
)

// pinChurn is an alloc/access/free cycle tight enough to exercise the
// whole registration ladder when a budget or the lazy dead-list is
// configured.
func pinChurn(th *Thread) {
	for r := 0; r < 3; r++ {
		var as []*SharedArray
		for i := 0; i < 3; i++ {
			a := th.AllAlloc(fmt.Sprintf("C%d-%d", r, i), 64, 8, 16)
			if a.Owner(40) == th.ID() {
				th.PutUint64(a.At(40), uint64(r*10+i))
			}
			as = append(as, a)
		}
		th.Barrier()
		for i, a := range as {
			if got := th.GetUint64(a.At(40)); got != uint64(r*10+i) {
				panic(fmt.Sprintf("C%d-%d[40] = %d", r, i, got))
			}
		}
		th.Barrier()
		if th.ID() == 0 {
			for _, a := range as {
				th.Free(a)
			}
		}
		th.Barrier()
	}
}

// The evictor knob defaults to LRU: a config that says nothing about
// evictors must produce bit-identical stats to one that asks for LRU
// explicitly. This is the "default off" half of the graceful-degradation
// contract — merely having the ladder in the tree changes nothing.
func TestExplicitLRUMatchesDefaultEvictor(t *testing.T) {
	run := func(kind mem.EvictorKind) RunStats {
		c := cfg(4, 2, transport.GM(), DefaultCache())
		chunk := NewLayout(4, 2, 8, 16, 64).NodeChunkBytes()
		c.Pin = &PinConfig{Policy: mem.PinLimited, MaxTotal: int(2 * chunk), Evictor: kind}
		return mustRun(t, c, pinChurn)
	}
	implicit, explicit := run(mem.EvictLRU), run(mem.EvictorKind(0))
	if !reflect.DeepEqual(implicit, explicit) {
		t.Fatalf("explicit LRU diverges from the default:\n%+v\nvs\n%+v", implicit, explicit)
	}
}

// Runs that never opt into lazy unpinning must report zero activity on
// every lazy/ghost counter, whatever else the run does.
func TestEagerRunsReportNoLazyActivity(t *testing.T) {
	c := cfg(4, 2, transport.GM(), DefaultCache())
	chunk := NewLayout(4, 2, 8, 16, 64).NodeChunkBytes()
	c.Pin = &PinConfig{Policy: mem.PinLimited, MaxTotal: int(chunk) + 1}
	st := mustRun(t, c, pinChurn)
	if st.Flight[flight.KindPinEvict] == 0 {
		t.Fatal("churn never forced an eviction; budget too generous")
	}
	if st.Flight[flight.KindPinReuse] != 0 || st.Flight[flight.KindPinPark] != 0 || st.Reclaims != 0 {
		t.Fatalf("eager run shows lazy counters: reuses=%d parked=%d reclaims=%d",
			st.Flight[flight.KindPinReuse], st.Flight[flight.KindPinPark], st.Reclaims)
	}
}

// A lazy-unpin churn run must park registrations at Free, revive them on
// the next round's identical allocation, and leave a KindPinPark /
// KindPinReuse trail in the flight recorder.
func TestLazyUnpinParksReusesAndRecords(t *testing.T) {
	c := cfg(4, 2, transport.GM(), DefaultCache())
	c.Pin = &PinConfig{Policy: mem.PinAll, Lazy: true}
	c.Flight = &flight.Config{PerNode: 256}
	rt, err := NewRuntime(c)
	if err != nil {
		t.Fatal(err)
	}
	st, err := rt.Run(pinChurn)
	if err != nil {
		t.Fatal(err)
	}
	if st.Flight[flight.KindPinPark] == 0 || st.Flight[flight.KindPinReuse] == 0 {
		t.Fatalf("lazy churn did not park/reuse: parked=%d reuses=%d", st.Flight[flight.KindPinPark], st.Flight[flight.KindPinReuse])
	}
	// Reuse means the re-registration was free: round 2+ allocations pay
	// no RegTime beyond round 1's.
	kinds := map[flight.Kind]int{}
	fr := rt.FlightRecorder()
	for n := 0; n < rt.Config().Nodes; n++ {
		for _, e := range fr.Node(n) {
			kinds[e.Kind]++
		}
	}
	if kinds[flight.KindPinPark] == 0 {
		t.Fatal("no pin_park events in the flight recorder")
	}
	if kinds[flight.KindPinReuse] == 0 {
		t.Fatal("no pin_reuse events in the flight recorder")
	}
}

// Lazy unpinning is a performance cache, not a semantics change: the
// same churn under eager and lazy unpinning returns identical data and
// the lazy run never loses to the eager one on registration time.
func TestLazyUnpinSavesRegistrationTime(t *testing.T) {
	run := func(lazy bool) RunStats {
		c := cfg(4, 2, transport.GM(), DefaultCache())
		c.Pin = &PinConfig{Policy: mem.PinAll, Lazy: lazy}
		return mustRun(t, c, pinChurn)
	}
	eager, lazy := run(false), run(true)
	if lazy.RegTime >= eager.RegTime {
		t.Fatalf("lazy reuse saved no registration time: lazy=%v eager=%v", lazy.RegTime, eager.RegTime)
	}
	if lazy.DeregTime >= eager.DeregTime {
		t.Fatalf("lazy parking saved no deregistration time: lazy=%v eager=%v", lazy.DeregTime, eager.DeregTime)
	}
}
