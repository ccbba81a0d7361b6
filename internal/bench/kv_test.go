package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"xlupc/internal/flight"
	"xlupc/internal/kv"
	"xlupc/internal/transport"
)

// TestKVCachedBeatsAMOnlySweep is the acceptance claim at driver
// level: across the skew sweep, the cached one-sided path improves on
// AM-only, and more so where the hit rate is high.
func TestKVCachedBeatsAMOnlySweep(t *testing.T) {
	sc := Scale{Threads: 8, Nodes: 4}
	pts := Sweep{Seed: 3}.KVSkewSweep(transport.GM(), sc, []float64{0, 0.9, 0.99}, KVOpts{Workload: kv.Workload{
		Ops: 80, NumKeys: 1024, ReadFrac: 0.9, Rate: 0,
	}})
	for _, pt := range pts {
		if pt.Improvement <= 0 {
			t.Errorf("theta %.2f: cached path not faster (improvement %.1f%%)", pt.Theta, pt.Improvement)
		}
		if pt.Cached.HitRate < 0.5 {
			t.Errorf("theta %.2f: kv hit rate %.2f unexpectedly low", pt.Theta, pt.Cached.HitRate)
		}
		if pt.Cached.Merged.Ops != pt.AMOnly.Merged.Ops {
			t.Errorf("theta %.2f: op counts diverged: %d vs %d",
				pt.Theta, pt.Cached.Merged.Ops, pt.AMOnly.Merged.Ops)
		}
	}
}

// TestKVCurvesCompleteUnderHazards: loss and crash runs must finish
// every op (the curves panic otherwise) with nonzero availability.
func TestKVCurvesCompleteUnderHazards(t *testing.T) {
	sc := Scale{Threads: 8, Nodes: 4}
	s := Sweep{Seed: 9}
	o := KVOpts{Workload: kv.Workload{Ops: 50, NumKeys: 512, Theta: 0.9, ReadFrac: 0.9, Rate: 120000}}
	curves := map[string][]KVSLOPoint{
		"loss":  s.KVLossCurve(transport.GM(), sc, []float64{0, 0.02}, o),
		"crash": s.KVCrashCurve(transport.GM(), sc, []float64{0, 0.2}, 150, o),
	}
	for kind, pts := range curves {
		for _, pt := range pts {
			if pt.Availability <= 0 {
				t.Errorf("%s curve at rate %g: availability %v, want > 0", kind, pt.Rate, pt.Availability)
			}
		}
	}
	crash := curves["crash"]
	if crash[0].Result.Run.Flight[flight.KindCrash] != 0 {
		t.Errorf("crash curve at rate 0 crashed %d nodes", crash[0].Result.Run.Flight[flight.KindCrash])
	}
	if crash[1].Result.Run.Flight[flight.KindCrash] == 0 {
		t.Errorf("crash curve at rate 0.2 crashed no nodes — schedule not applied")
	}
}

func TestParseRatesAndFracs(t *testing.T) {
	if got, err := ParseRates("-losses", " 0, 0.5 ,0.99,"); err != nil || len(got) != 3 {
		t.Errorf("ParseRates = %v, %v", got, err)
	}
	for _, bad := range []string{"1", "1.5", "-0.1", "NaN", "x"} {
		if _, err := ParseRates("-losses", bad); err == nil {
			t.Errorf("ParseRates accepted %q", bad)
		}
	}
	if got, err := ParseFracs("-readmix", "0,0.5,1"); err != nil || len(got) != 3 {
		t.Errorf("ParseFracs = %v, %v", got, err)
	}
	for _, bad := range []string{"1.01", "-0.1", "NaN"} {
		if _, err := ParseFracs("-readmix", bad); err == nil {
			t.Errorf("ParseFracs accepted %q", bad)
		}
	}
	if err := ValidatePositive("-ops", 1); err != nil {
		t.Errorf("ValidatePositive rejected 1: %v", err)
	}
	for _, bad := range []int64{0, -5} {
		if err := ValidatePositive("-ops", bad); err == nil {
			t.Errorf("ValidatePositive accepted %d", bad)
		}
	}
}

func TestParseSweepFlags(t *testing.T) {
	for _, c := range []struct {
		reps, parallel int
		err            string // substring of the error; "" = accepted
	}{
		{1, 0, ""},
		{20, 1, ""},
		{0, 0, "-reps (0) must be positive"},
		{-1, 0, "-reps (-1) must be positive"},
		{1, -1, "-parallel (-1) must not be negative"},
	} {
		err := ParseSweepFlags(c.reps, c.parallel)
		switch {
		case c.err == "" && err != nil:
			t.Errorf("ParseSweepFlags(%d, %d) = %v; want it accepted", c.reps, c.parallel, err)
		case c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)):
			t.Errorf("ParseSweepFlags(%d, %d): error %v, want one mentioning %q", c.reps, c.parallel, err, c.err)
		}
	}
}

func TestParseFlightFlags(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		name    string
		on      bool
		path    string
		err     string // substring of the error; "" = accepted
		flight  bool   // the sweeps get rings
		capture bool   // finish leaves a non-empty file at path
	}{
		{"off", false, "", "", false, false},
		{"-flight", true, "", "", true, false},
		{"-flight-dump implies -flight", false, filepath.Join(dir, "a.dump"), "", true, true},
		{"both", true, filepath.Join(dir, "b.dump"), "", true, true},
		{"bad path", false, filepath.Join(dir, "missing", "x.dump"), "no such file or directory", false, false},
	} {
		fl, finish, err := ParseFlightFlags(c.on, c.path)
		switch {
		case c.err != "":
			if err == nil || !strings.Contains(err.Error(), c.err) {
				t.Errorf("%s: error %v, want one mentioning %q", c.name, err, c.err)
			}
			continue
		case err != nil:
			t.Errorf("%s: %v; want it accepted", c.name, err)
			continue
		}
		if (fl != nil) != c.flight {
			t.Errorf("%s: flight config %+v, want rings = %v", c.name, fl, c.flight)
		}
		if err := finish(Sweep{Seed: 1, Flight: fl}); err != nil {
			t.Errorf("%s: finish: %v", c.name, err)
		}
		if c.capture {
			if raw, err := os.ReadFile(c.path); err != nil || len(raw) == 0 {
				t.Errorf("%s: clean run left %d bytes in %s (err %v), want a capture", c.name, len(raw), c.path, err)
			}
		}
	}
}

const kvHitRateGoldenFile = "testdata/kv_hitrate_golden.json"

// TestKVHitRateGolden pins xlupc-kv's hit-rate column. The golden was
// recorded while the column was folded from per-key counters of the kv
// object's lines alone; the kv object is the only thing a KV run looks
// up, so the run's global cache counters must reproduce it bit for bit.
func TestKVHitRateGolden(t *testing.T) {
	got := make(map[string]float64)
	for _, prof := range []*transport.Profile{transport.GM(), transport.LAPI()} {
		for _, sc := range []Scale{{16, 4}, {64, 16}} {
			pts := Sweep{Seed: 3}.KVSkewSweep(prof, sc, []float64{0, 0.9, 0.99}, KVOpts{Workload: kv.Workload{
				Ops: 80, NumKeys: 1024, ReadFrac: 0.9, Rate: 0,
			}})
			for _, pt := range pts {
				got[fmt.Sprintf("%s/%v/theta=%.2f", prof.Name, sc, pt.Theta)] = pt.Cached.HitRate
			}
		}
	}
	if *updateParityGolden {
		b, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(kvHitRateGoldenFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(kvHitRateGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]float64
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("kv hit rates diverge from the golden:\n got %v\nwant %v", got, want)
	}
}
