package dis

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"xlupc/internal/core"
	"xlupc/internal/transport"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/stressmark_golden.json from this tree")

const goldenFile = "testdata/stressmark_golden.json"

// goldenRow is what a stressmark run is pinned to: the workload's
// answer and the deterministic shape of the run that produced it.
type goldenRow struct {
	Checksum     string `json:"checksum"` // hex: a uint64 does not survive a JSON float
	ElapsedPs    int64  `json:"elapsed_ps"`
	KernelEvents int64  `json:"kernel_events"`
	Messages     int64  `json:"messages"`
	CacheHits    int64  `json:"cache_hits"`
}

// runGolden executes one stressmark.
func runGolden(t *testing.T, mark string, cfg core.Config) goldenRow {
	t.Helper()
	fn, err := ByName(mark)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := core.NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := Params{}
	checks := make([]uint64, cfg.Threads)
	st, err := rt.Run(func(th *core.Thread) { checks[th.ID()] = fn(th, p) })
	if err != nil {
		t.Fatal(err)
	}
	return goldenRow{
		Checksum:     fmt.Sprintf("%016x", Checksum(checks)),
		ElapsedPs:    int64(st.Elapsed),
		KernelEvents: st.KernelEvents,
		Messages:     st.Messages,
		CacheHits:    st.Cache.Hits,
	}
}

// TestStressmarkGolden pins every stressmark to absolute values
// recorded from the tree before the affinity-walk rewrite: the
// checksum tests compare runs of this tree with each other and cannot
// see a change that moves them all the same way; this can. Regenerate
// deliberately with
// `go test ./internal/dis -run TestStressmarkGolden -update`.
func TestStressmarkGolden(t *testing.T) {
	scales := []struct {
		name           string
		prof           func() *transport.Profile
		threads, nodes int
	}{
		{"gm-16x4", transport.GM, 16, 4},
		{"gm-64x16", transport.GM, 64, 16},
		{"lapi-16x2", transport.LAPI, 16, 2},
	}
	caches := []struct {
		name string
		cc   core.CacheConfig
	}{
		{"cache", core.DefaultCache()},
		{"nocache", core.NoCache()},
	}

	want := map[string]goldenRow{}
	if !*updateGolden {
		raw, err := os.ReadFile(goldenFile)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatalf("%s: %v", goldenFile, err)
		}
	}

	got := map[string]goldenRow{}
	for _, s := range Suite() {
		for _, sc := range scales {
			for _, c := range caches {
				key := s.Name + "/" + sc.name + "/" + c.name
				cfg := core.Config{
					Threads: sc.threads, Nodes: sc.nodes,
					Profile: sc.prof(), Cache: c.cc, Seed: 7,
				}
				got[key] = runGolden(t, s.Name, cfg)
				if *updateGolden {
					continue
				}
				w, ok := want[key]
				if !ok {
					t.Errorf("%s: no golden row", key)
				} else if got[key] != w {
					t.Errorf("%s:\n got  %+v\n want %+v", key, got[key], w)
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
