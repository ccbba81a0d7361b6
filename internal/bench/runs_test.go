package bench

import (
	"reflect"
	"testing"

	"xlupc/internal/core"
	"xlupc/internal/transport"
)

// runOnce simulates one stressmark point afresh: a Sweep literal's run
// table lives for one call.
func runOnce(s Sweep, mark string, sc Scale, prof *transport.Profile, cc core.CacheConfig) core.RunStats {
	return s.run([]runPoint{s.point(mark, prof, sc, cc)})[0].st
}

// TestRunTableReuseIsExact drives Figure 8's grid (Pointer and
// Neighborhood on GM, 8-2 … 128-32, 4/10/100 entries), Figure 9's GM
// panel and §4.5's pin usage through one run table on two workers, then
// simulates afresh every point the table answered with a run of another
// capacity: RunStats and checksum must be equal, field for field. The
// number of runs simulated and of each kind of reuse is exact — the
// reuse decisions do not depend on Workers. It runs under -short, so the
// race detector sees the table shared between workers.
func TestRunTableReuseIsExact(t *testing.T) {
	s := Sweep{Seed: 1, Workers: 2}.WithRunTable()
	caps := []int{4, 10, 100}
	s.Fig8("pointer", GMScales(128), caps)
	s.Fig8("neighborhood", GMScales(128), caps)
	s.Fig9(transport.GM(), GMScales(128))
	s.PinUsage(transport.GM(), Scale{Threads: 16, Nodes: 4})

	tab := s.tab
	gm := s.point("pointer", transport.GM(), Scale{}, core.NoCache()).key().prof
	byCapacity := 0
	for k, r := range tab.runs {
		if r.from == k {
			continue
		}
		byCapacity++
		if k.prof != gm {
			t.Fatalf("%+v: not a GM run", k)
		}
		st, check, _ := runMark(k.mark, core.Config{
			Threads: k.threads, Nodes: k.nodes, Profile: transport.GM(), Cache: k.cache, Seed: k.seed,
		}, k.p)
		if !reflect.DeepEqual(st, r.st) || check != r.check {
			t.Errorf("%s %d-%d at %d entries, reused from %d entries: differs from a fresh run\nreused: %+v %x\nfresh:  %+v %x",
				k.mark, k.threads, k.nodes, k.cache.Capacity, r.from.cache.Capacity, r.st, r.check, st, check)
		}
	}
	repeats := tab.requests - tab.simulated - byCapacity
	t.Logf("%d points asked for: %d simulated, %d read back, %d from another capacity",
		tab.requests, tab.simulated, repeats, byCapacity)
	// Figure 9's cached Pointer and Neighborhood runs are Figure 8's
	// 100-entry runs (10), the pin usage is Figure 9's (4); Neighborhood
	// caches hold one entry each (10), Pointer fits 4
	// entries at 8-2 and 16-4 and 10 at 32-8 (5).
	if tab.requests != 74 || tab.simulated != 45 || repeats != 14 || byCapacity != 15 {
		t.Errorf("want 74 points asked for: 45 simulated, 14 read back, 15 from another capacity")
	}
}
