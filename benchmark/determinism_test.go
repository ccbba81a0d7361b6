package main

import (
	"reflect"
	"testing"
)

// toySizes run in a few milliseconds each.
var toySizes = sizeSet{
	ChaseCached: toyChase(true, true),
	ChaseAM:     toyChase(false, false),
	KV:          kvSpec{Threads: 8, Nodes: 2, Keys: 512, OpsPerThread: 200, Theta: 0.9, ReadFrac: 0.5},
}

func toyRep(t *testing.T, name string, seed int64) rep {
	t.Helper()
	w, err := newWorkload(name, toySizes, seed, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.prepare(nil); err != nil {
		t.Fatal(err)
	}
	r := w.run(0, nil, "")
	if r.Err != "" || r.Failed != 0 {
		t.Fatalf("%s seed %d: failed=%d err=%q", name, seed, r.Failed, r.Err)
	}
	return r
}

// Everything marked exact — the counts behind the per-layer whole-run
// metrics, virtual time among them, and the output digest — repeats bit
// for bit for one seed; another seed gives other inputs.
func TestSameSeedSameExactValues(t *testing.T) {
	for _, name := range []string{"chase_cached", "chase_am", "kv_mixed"} {
		a, b, other := toyRep(t, name, 1), toyRep(t, name, 1), toyRep(t, name, 2)
		if !reflect.DeepEqual(a.Counts, b.Counts) || a.Digest != b.Digest {
			t.Errorf("%s: two runs of seed 1 differ:\n%+v %s\n%+v %s", name, *a.Counts, a.Digest, *b.Counts, b.Digest)
		}
		if a.Digest == other.Digest {
			t.Errorf("%s: seeds 1 and 2 give the same outputs (%s)", name, a.Digest)
		}
	}
}

// The exact driver columns repeat too: kernel events per operation
// always, allocations per operation in continuation mode.
func TestDriverCountsRepeat(t *testing.T) {
	for _, dr := range driverTable() {
		if dr.cols&colEvents == 0 {
			continue
		}
		a, err := runDriver(dr, 1, 50)
		if err != nil {
			t.Fatal(err)
		}
		b, err := runDriver(dr, 1, 50)
		if err != nil {
			t.Fatal(err)
		}
		if a[dr.name+"_events"] != b[dr.name+"_events"] {
			t.Errorf("%s: %v then %v kernel events per op", dr.name, a[dr.name+"_events"], b[dr.name+"_events"])
		}
	}
}

// Every whole-run count is derived from a rep's counters, under its
// listed name and no other.
func TestWholeRunCountsCoverTheirNames(t *testing.T) {
	r := toyRep(t, "kv_mixed", 1)
	m := map[string]float64{}
	wholeRunCounts(m, r, toySizes.KV.ops(), toySizes.KV.OpsPerThread, r.WallS)
	if len(m) != len(countMetrics) {
		t.Errorf("%d values for %d names", len(m), len(countMetrics))
	}
	for _, cm := range countMetrics {
		if m[cm.Name] == 0 && cm.Name != "addrcache.evictions_per_op" {
			t.Errorf("%s is 0 on a run that exercises it", cm.Name)
		}
	}
}
