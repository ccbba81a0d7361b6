package trace_test

import (
	"encoding/json"
	"flag"
	"os"
	"testing"

	"xlupc/internal/core"
	"xlupc/internal/dis"
	"xlupc/internal/telemetry"
	"xlupc/internal/trace"
	"xlupc/internal/transport"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/states_golden.json from this tree")

const goldenFile = "testdata/states_golden.json"

// statesRow is what one run's §4.6 state view is pinned to.
type statesRow struct {
	TotalPs       map[string]int64 `json:"total_ps"`  // per state, summed over threads
	Intervals     map[string]int   `json:"intervals"` // per state
	LongestGetPs  int64            `json:"longest_get_ps"`
	LongestThread int              `json:"longest_get_thread"`
}

func rowOf(tr *trace.Trace) statesRow {
	row := statesRow{TotalPs: map[string]int64{}, Intervals: map[string]int{}}
	for _, iv := range tr.Intervals() {
		row.TotalPs[iv.State.String()] += int64(iv.Dur())
		row.Intervals[iv.State.String()]++
	}
	worst := tr.MaxInterval(trace.StateGetWait)
	row.LongestGetPs, row.LongestThread = int64(worst.Dur()), worst.Thread
	return row
}

// statesOf runs one stressmark and returns its state view.
func statesOf(t *testing.T, mark string, cfg core.Config) *trace.Trace {
	t.Helper()
	fn, err := dis.ByName(mark)
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New()
	cfg.Telemetry = tel
	rt, err := core.NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := dis.Run(rt, fn, dis.Params{}); err != nil {
		t.Fatal(err)
	}
	return trace.FromSpans(tel)
}

// TestStatesGolden pins the per-state totals, interval counts and the
// longest GET wait of every stressmark to the values the runtime's own
// Begin/End recorder produced before it was deleted (PR 19): the span
// view has to reproduce each row to the picosecond. Regenerate deliberately with
// `go test ./internal/trace -run TestStatesGolden -update`.
func TestStatesGolden(t *testing.T) {
	scales := []struct {
		name           string
		prof           func() *transport.Profile
		threads, nodes int
	}{
		{"gm-16x4", transport.GM, 16, 4},
		{"lapi-16x2", transport.LAPI, 16, 2},
	}
	caches := []struct {
		name string
		cc   core.CacheConfig
	}{
		{"cache", core.DefaultCache()},
		{"nocache", core.NoCache()},
	}
	marks := []string{"pointer", "update", "neighborhood", "field"}

	want := map[string]statesRow{}
	if !*updateGolden {
		raw, err := os.ReadFile(goldenFile)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatalf("%s: %v", goldenFile, err)
		}
	}

	got := map[string]statesRow{}
	for _, m := range marks {
		for _, sc := range scales {
			for _, c := range caches {
				key := m + "/" + sc.name + "/" + c.name
				cfg := core.Config{
					Threads: sc.threads, Nodes: sc.nodes,
					Profile: sc.prof(), Cache: c.cc, Seed: 1,
				}
				got[key] = rowOf(statesOf(t, m, cfg))
				if *updateGolden {
					continue
				}
				g, _ := json.Marshal(got[key])
				w, _ := json.Marshal(want[key]) // map keys marshal sorted: a byte compare is a row compare
				if _, ok := want[key]; !ok {
					t.Errorf("%s: no golden row", key)
				} else if string(g) != string(w) {
					t.Errorf("%s:\n got  %s\n want %s", key, g, w)
				}
			}
		}
	}

	if *updateGolden {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if len(want) != len(got) {
		t.Errorf("%s has %d rows, the matrix has %d", goldenFile, len(want), len(got))
	}
}
