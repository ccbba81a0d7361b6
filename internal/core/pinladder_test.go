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
// whole registration ladder when a budget is configured.
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
	if implicit.Flight[flight.KindPinEvict] == 0 {
		t.Fatal("churn never forced an eviction; budget too generous")
	}
	if !reflect.DeepEqual(implicit, explicit) {
		t.Fatalf("explicit LRU diverges from the default:\n%+v\nvs\n%+v", implicit, explicit)
	}
}
