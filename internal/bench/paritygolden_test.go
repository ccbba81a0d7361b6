package bench

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"xlupc/internal/core"
	"xlupc/internal/dis"
	"xlupc/internal/transport"
)

var updateParityGolden = flag.Bool("update", false, "rewrite testdata/parity_golden.json from this tree")

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

// TestParityGolden pins every point of TestContModeParity's matrix,
// plus TestContModeMicroParity's, to absolute values recorded from the
// tree that still had a separate blocking implementation, in both
// execution modes. The blocking API is a shim over the continuation
// ladders, so the parity tests compare one implementation with itself
// and cannot see a change that moves both modes together; this can.
// Regenerate deliberately with
// `go test ./internal/bench -run TestParityGolden -update`.
func TestParityGolden(t *testing.T) {
	want := map[string]parityRow{}
	if !*updateParityGolden {
		raw, err := os.ReadFile(parityGoldenFile)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatalf("%s: %v", parityGoldenFile, err)
		}
	}

	got := map[string]parityRow{}
	check := func(key string, blocking, cont parityRow) {
		got[key] = blocking
		if *updateParityGolden {
			if blocking != cont {
				t.Fatalf("%s: exec modes disagree, refusing to record:\n goroutine %+v\n cont      %+v", key, blocking, cont)
			}
			return
		}
		w, ok := want[key]
		if !ok {
			t.Errorf("%s: no golden row", key)
			return
		}
		if blocking != w {
			t.Errorf("%s (goroutine):\n got  %+v\n want %+v", key, blocking, w)
		}
		if cont != w {
			t.Errorf("%s (cont):\n got  %+v\n want %+v", key, cont, w)
		}
	}

	for _, pc := range parityMatrix() {
		for _, s := range dis.Suite() {
			stG, stC, ckG, ckC := runBothModes(t, s.Name, pc.cfg, pc.p)
			check(pc.name+"/"+s.Name, parityRowOf(stG, ckG), parityRowOf(stC, ckC))
		}
	}
	stG, stC := runMicroBothModes(t)
	check("micro", parityRowOf(stG, 0), parityRowOf(stC, 0))

	if *updateParityGolden {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(parityGoldenFile, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if len(want) != len(got) {
		t.Errorf("%s has %d rows, the matrix has %d", parityGoldenFile, len(want), len(got))
	}
}

// runMicroBothModes runs TestContModeMicroParity's point (same config,
// same bodies) in both execution modes.
func runMicroBothModes(t *testing.T) (stG, stC core.RunStats) {
	t.Helper()
	const size = 1024
	cfg := core.Config{
		Threads: 2, Nodes: 2,
		Profile: transport.GM(),
		Cache:   core.DefaultCache(),
		Seed:    3,
	}
	cfg.Exec = core.ExecGoroutine
	rtG, err := core.NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stG, err = rtG.Run(func(th *core.Thread) { microBody(th, size) }); err != nil {
		t.Fatal(err)
	}
	cfg.Exec = core.ExecCont
	rtC, err := core.NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stC, err = rtC.RunCont(func(th *core.Thread, done func()) { microBodyC(th, size, done) }); err != nil {
		t.Fatal(err)
	}
	return stG, stC
}
