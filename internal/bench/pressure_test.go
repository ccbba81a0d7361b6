package bench

// Gates and determinism for the memory-pressure figures. The sweeps
// themselves panic on checksum divergence between pin policies, so any
// completed sweep already proves the output-identity half of the
// contract; the tests below pin down the performance story (pin-all or
// LRU degrades, an adaptive rung wins) and the bit-identity of the
// sweep across repeats and sweep parallelism.

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"xlupc/internal/flight"
	"xlupc/internal/transport"
)

// testPressureOpts is a scaled-down churn storm that keeps the figure's
// qualitative shape (hot-vs-cold scans, chunk-granular budgets) at unit
// test cost.
func testPressureOpts() PressureOpts {
	o := DefaultPressure()
	o.Rounds = 2
	o.Fracs = []float64{0.34, 1.0}
	return o
}

func TestPressureSweepDeterministic(t *testing.T) {
	o := testPressureOpts()
	s := Sweep{Seed: 7}
	a := s.PressureSweep(transport.GM(), o)
	b := s.PressureSweep(transport.GM(), o)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("back-to-back pressure sweeps diverged:\n%+v\nvs\n%+v", a, b)
	}
	old := runtime.GOMAXPROCS(2)
	c := s.PressureSweep(transport.GM(), o)
	runtime.GOMAXPROCS(old)
	if !reflect.DeepEqual(a, c) {
		t.Fatal("pressure sweep depends on GOMAXPROCS")
	}
}

func TestPressureSweepParallelismInvariant(t *testing.T) {
	o := testPressureOpts()
	seq := Sweep{Seed: 7, Workers: 1}.PressureSweep(transport.GM(), o)
	par := Sweep{Seed: 7, Workers: 8}.PressureSweep(transport.GM(), o)
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("sweep results depend on sweep parallelism")
	}
}

// TestPressureGates asserts the degradation story the figure exists to
// show, at the published seed (7) and at what `xlupc-cache -pressure`
// prints (its -seed defaults to 1): under a tight budget LRU thrashes
// while at least one adaptive rung holds up, and at a full budget the
// lazy registration cache beats eager pin-all outright.
func TestPressureGates(t *testing.T) {
	for _, s := range []Sweep{{Seed: 7}, {Seed: 1}} {
		t.Run(fmt.Sprintf("seed%d", s.Seed), func(t *testing.T) { checkPressureGates(t, s, DefaultPressure()) })
	}
}

func checkPressureGates(t *testing.T, s Sweep, o PressureOpts) {
	pts := s.PressureSweep(transport.GM(), o)
	nv := len(o.variants())
	row := func(fi int) []PressurePoint { return pts[fi*nv : (fi+1)*nv] }
	byName := func(row []PressurePoint, name string) PressurePoint {
		for _, p := range row {
			if p.Variant == name {
				return p
			}
		}
		t.Fatalf("variant %q missing", name)
		return PressurePoint{}
	}
	// Tight budget (fracs[0]): LRU pays an eviction storm and lands
	// behind greedy pin-all; cost-aware protection stays well ahead of
	// LRU.
	tight := row(0)
	pinAll, lru, cost := byName(tight, "pin-all"), byName(tight, "lru"), byName(tight, "cost")
	if lru.Run.Flight[flight.KindPinEvict] == 0 {
		t.Fatal("tight budget provoked no LRU evictions: workload too small to thrash")
	}
	if lru.Run.Elapsed <= pinAll.Run.Elapsed {
		t.Fatalf("LRU did not thrash: lru=%v pin-all=%v", lru.Run.Elapsed, pinAll.Run.Elapsed)
	}
	if cost.Run.Elapsed >= lru.Run.Elapsed {
		t.Fatalf("cost-aware protection lost to LRU: cost=%v lru=%v", cost.Run.Elapsed, lru.Run.Elapsed)
	}
	if pinAll.Run.Flight[flight.KindPinEvict] != 0 {
		t.Fatalf("pin-all evicted %d registrations; it must degrade to AM, never evict", pinAll.Run.Flight[flight.KindPinEvict])
	}
	if pinAll.Run.MaxLive >= pressureWorkingSet(o) {
		t.Fatal("tight budget did not constrain pin-all: peak pinned covers the working set")
	}
	// Full budget (last frac): lazy unpinning reuses registrations that
	// eager policies re-pay every round.
	full := row(len(o.Fracs) - 1)
	eager, lazy := byName(full, "pin-all"), byName(full, "lru+lazy")
	if lazy.Run.Flight[flight.KindPinReuse] == 0 {
		t.Fatal("lazy rung recorded no registration reuse")
	}
	if lazy.Run.Elapsed >= eager.Run.Elapsed {
		t.Fatalf("lazy registration cache lost to eager pin-all: lazy=%v eager=%v", lazy.Run.Elapsed, eager.Run.Elapsed)
	}
	// The figure's "# gate" row: the best rung beyond pin-all and plain
	// LRU beats both.
	var best *PressurePoint
	for i := range full {
		if p := &full[i]; p.Variant != "pin-all" && p.Variant != "lru" && (best == nil || p.Run.Elapsed < best.Run.Elapsed) {
			best = p
		}
	}
	if lru := byName(full, "lru"); best.Run.Elapsed >= eager.Run.Elapsed || best.Run.Elapsed >= lru.Run.Elapsed {
		t.Fatalf("best adaptive rung %s (%v) did not beat pin-all (%v) and lru (%v)",
			best.Variant, best.Run.Elapsed, eager.Run.Elapsed, lru.Run.Elapsed)
	}
	// Output identity across the whole ladder (the sweep also panics on
	// divergence; assert it visibly here).
	for fi := range o.Fracs {
		r := row(fi)
		for _, p := range r[1:] {
			if p.Checksum != r[0].Checksum {
				t.Fatalf("checksum diverged: %s=%#x vs %s=%#x", r[0].Variant, r[0].Checksum, p.Variant, p.Checksum)
			}
		}
	}
}
