package bench

// CI bench smoke: runs the checked-in 32k-thread / 1k-node Figure-8
// point and fails when a host metric regresses
// more than 15% against testdata/big32k_baseline.json. The virtual
// columns (events, checksum) must match the baseline exactly — they
// are deterministic, so any drift there is a semantics change, not a
// performance regression.
//
// The gate is env-opt-in (XLUPC_BENCH_SMOKE=1) because the point runs
// for minutes and the events/sec half is machine-sensitive: the
// baseline is refreshed (run the test, copy the printed JSON) whenever
// the CI hardware class changes. allocs/ev is host-independent and is
// the stable half of the gate.

import (
	"encoding/json"
	"os"
	"testing"
)

type big32kBaseline struct {
	KernelEvents int64   `json:"kernel_events"`
	Checksum     uint64  `json:"checksum"`
	EventsPerSec float64 `json:"events_per_sec"`
	AllocsPerEv  float64 `json:"allocs_per_ev"`
}

func TestBenchSmoke32k(t *testing.T) {
	if os.Getenv("XLUPC_BENCH_SMOKE") == "" {
		t.Skip("set XLUPC_BENCH_SMOKE=1 to run the 32k-point regression gate")
	}
	raw, err := os.ReadFile("testdata/big32k_baseline.json")
	if err != nil {
		t.Fatalf("reading baseline: %v", err)
	}
	var base big32kBaseline
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatalf("parsing baseline: %v", err)
	}

	sp, err := Sweep{Seed: 1}.ScaleMark(BigScale())
	if err != nil {
		t.Fatal(err)
	}
	cur, _ := json.Marshal(big32kBaseline{
		KernelEvents: sp.KernelEvents,
		Checksum:     sp.Checksum,
		EventsPerSec: sp.EventsPerSec,
		AllocsPerEv:  sp.AllocsPerEv,
	})
	t.Logf("measured: %s", cur)

	if sp.KernelEvents != base.KernelEvents {
		t.Errorf("kernel events %d != baseline %d: the workload itself changed; refresh the baseline deliberately",
			sp.KernelEvents, base.KernelEvents)
	}
	if sp.Checksum != base.Checksum {
		t.Errorf("checksum %x != baseline %x: workload result changed", sp.Checksum, base.Checksum)
	}
	if sp.AllocsPerEv > base.AllocsPerEv*1.15 {
		t.Errorf("allocs/ev %.3f regressed >15%% vs baseline %.3f", sp.AllocsPerEv, base.AllocsPerEv)
	}
	if sp.EventsPerSec < base.EventsPerSec*0.85 {
		t.Errorf("events/sec %.0f regressed >15%% vs baseline %.0f (machine-sensitive: refresh the baseline if the runner class changed)",
			sp.EventsPerSec, base.EventsPerSec)
	}
}
