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

// runGolden executes one stressmark in one execution mode.
func runGolden(t *testing.T, mark string, cfg core.Config, exec core.ExecMode) goldenRow {
	t.Helper()
	cfg.Exec = exec
	rt, err := core.NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := Default(cfg.Threads)
	checks := make([]uint64, cfg.Threads)
	var st core.RunStats
	if exec == core.ExecCont {
		fn, ferr := ByNameC(mark)
		if ferr != nil {
			t.Fatal(ferr)
		}
		st, err = rt.RunCont(func(th *core.Thread, done func()) {
			fn(th, p, func(c uint64) {
				checks[th.ID()] = c
				done()
			})
		})
	} else {
		fn, ferr := ByName(mark)
		if ferr != nil {
			t.Fatal(ferr)
		}
		st, err = rt.Run(func(th *core.Thread) { checks[th.ID()] = fn(th, p) })
	}
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
// recorded from the tree before the affinity-walk rewrite, in both
// execution modes. TestContModeParity only compares the blocking and
// continuation twins with each other, so it cannot see a change that
// moves both the same way; this can. Regenerate deliberately with
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
				blocking := runGolden(t, s.Name, cfg, core.ExecGoroutine)
				cont := runGolden(t, s.Name, cfg, core.ExecCont)
				if blocking != cont {
					t.Errorf("%s: exec modes disagree:\n goroutine %+v\n cont      %+v", key, blocking, cont)
				}
				got[key] = blocking
				if *updateGolden {
					continue
				}
				w, ok := want[key]
				if !ok {
					t.Errorf("%s: no golden row", key)
				} else if blocking != w {
					t.Errorf("%s:\n got  %+v\n want %+v", key, blocking, w)
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
