package bench

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"xlupc/internal/core"
	"xlupc/internal/dis"
	"xlupc/internal/fault"
	"xlupc/internal/transport"
)

var updateParityGolden = flag.Bool("update", false, "rewrite the testdata goldens (parity_golden.json, kv_hitrate_golden.json) from this tree")

const parityGoldenFile = "testdata/parity_golden.json"

// parityRow is what one point of the parity matrix is pinned to.
type parityRow struct {
	Checksum     string `json:"checksum"` // hex: a uint64 does not survive a JSON float
	ElapsedPs    int64  `json:"elapsed_ps"`
	KernelEvents int64  `json:"kernel_events"`
	Messages     int64  `json:"messages"`
	AMOps        int64  `json:"am_ops"`
	RDMAOps      int64  `json:"rdma_ops"`
	CacheHits    int64  `json:"cache_hits"`
}

func parityRowOf(st core.RunStats, checksum uint64) parityRow {
	return parityRow{
		Checksum:     fmt.Sprintf("%016x", checksum),
		ElapsedPs:    int64(st.Elapsed),
		KernelEvents: st.KernelEvents,
		Messages:     st.Messages,
		AMOps:        st.AMOps,
		RDMAOps:      st.RDMAOps,
		CacheHits:    st.Cache.Hits,
	}
}

// parityConfig is one configuration of the golden matrix; every
// stressmark runs at its default parameters.
type parityConfig struct {
	name string
	cfg  core.Config
}

func parityMatrix() []parityConfig {
	const threads, nodes = 8, 4
	base := func() core.Config {
		return core.Config{
			Threads: threads, Nodes: nodes,
			Profile: transport.GM(),
			Cache:   core.DefaultCache(),
			Seed:    42,
		}
	}
	pts := []parityConfig{}

	c := base()
	pts = append(pts, parityConfig{"gm-cached", c})

	c = base()
	c.Cache = core.NoCache()
	pts = append(pts, parityConfig{"gm-nocache", c})

	c = base()
	c.Profile = transport.LAPI()
	pts = append(pts, parityConfig{"lapi-cached", c})

	c = base()
	c.Fault = &fault.Config{Drop: 0.01}
	rel := transport.DefaultRelConfig()
	c.Rel = &rel
	pts = append(pts, parityConfig{"gm-faulty-reliable", c})

	return pts
}

// microBody is the microbenchmark shape (blocking one-op-at-a-time
// GET/PUT between two nodes), including the Fence cadence of the
// Figure 6/7 harness.
func microBody(t *core.Thread, size int) {
	elems := int64(size) * 2
	a := t.AllAlloc("micro", elems, 1, int64(size))
	t.Barrier()
	if t.ID() == 0 {
		buf := make([]byte, size)
		target := a.At(int64(size))
		for i := 0; i < 4; i++ {
			t.GetBulk(buf, target)
			t.PutBulk(target, buf)
			t.Fence()
		}
	}
	t.Barrier()
}

// The rows of testdata/parity_golden.json were recorded from the tree
// that still had a separate blocking implementation beside the
// continuation one, when TestContModeParity and TestContModeMicroParity
// ran every point in both modes and TestParityGolden pinned what the
// modes agreed on. Each point has one body now. The tests keep their
// names — the suite's history is keyed by them — and divide the file
// between them: every row is checked once.

func loadParityGolden(t *testing.T) map[string]parityRow {
	t.Helper()
	raw, err := os.ReadFile(parityGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]parityRow{}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", parityGoldenFile, err)
	}
	return want
}

func checkParityRow(t *testing.T, want map[string]parityRow, key string, got parityRow) {
	t.Helper()
	if w, ok := want[key]; !ok {
		t.Errorf("%s: no golden row", key)
	} else if got != w {
		t.Errorf("%s:\n got  %+v\n want %+v", key, got, w)
	}
}

func matrixRow(pc parityConfig, mark string) parityRow {
	st, ck, _ := runMark(mark, pc.cfg, dis.Params{})
	return parityRowOf(st, ck)
}

func microRow(t *testing.T) parityRow {
	t.Helper()
	rt, err := core.NewRuntime(core.Config{
		Threads: 2, Nodes: 2,
		Profile: transport.GM(),
		Cache:   core.DefaultCache(),
		Seed:    3,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := rt.Run(func(th *core.Thread) { microBody(th, 1024) })
	if err != nil {
		t.Fatal(err)
	}
	return parityRowOf(st, 0)
}

// TestContModeParity checks every stressmark, over a matrix of
// transport/cache/coalescing/fault configs, against its golden row
// (checksum, Elapsed, KernelEvents, Messages, op counts, cache hits).
func TestContModeParity(t *testing.T) {
	want := loadParityGolden(t)
	for _, pc := range parityMatrix() {
		t.Run(pc.name, func(t *testing.T) {
			for _, s := range dis.Suite() {
				t.Run(s.Name, func(t *testing.T) {
					checkParityRow(t, want, pc.name+"/"+s.Name, matrixRow(pc, s.Name))
				})
			}
		})
	}
}

// TestContModeMicroParity checks the microbenchmark shape against its
// golden row.
func TestContModeMicroParity(t *testing.T) {
	checkParityRow(t, loadParityGolden(t), "micro", microRow(t))
}

// TestParityGolden checks that the golden file holds exactly the rows
// the two tests above look up, so that a point dropped from the matrix
// does not leave its row behind. Regenerate the file deliberately with
// `go test ./internal/bench -run TestParityGolden -update`.
func TestParityGolden(t *testing.T) {
	if *updateParityGolden {
		got := map[string]parityRow{"micro": microRow(t)}
		for _, pc := range parityMatrix() {
			for _, s := range dis.Suite() {
				got[pc.name+"/"+s.Name] = matrixRow(pc, s.Name)
			}
		}
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(parityGoldenFile, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := loadParityGolden(t)
	if n := len(parityMatrix())*len(dis.Suite()) + 1; len(want) != n {
		t.Errorf("%s has %d rows, the matrix has %d", parityGoldenFile, len(want), n)
	}
}
