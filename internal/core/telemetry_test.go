package core

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"xlupc/internal/telemetry"
	"xlupc/internal/transport"
)

// telemetryWorkload is a small mixed workload exercising every
// instrumented path: remote GETs and PUTs (cached fast path, eager and
// rendezvous), local accesses, barriers, alloc and free.
func telemetryWorkload(th *Thread) {
	a := th.AllAlloc("A", 256, 8, 4)
	n := th.Threads()
	for i := 0; i < 20; i++ {
		idx := int64((th.ID()*31 + i*7) % 256)
		th.PutUint64(a.At(idx), uint64(i))
		_ = th.GetUint64(a.At((idx + 64) % 256))
	}
	// Large transfers take the rendezvous path on RDMA transports.
	buf := make([]byte, 32*8)
	th.GetBulk(buf, a.At(int64((th.ID()*32)%(256-32))))
	th.PutUint64(a.At(int64(th.ID())), uint64(n))
	th.Barrier()
	b := th.AllAlloc("B", 64, 8, 8)
	if th.ID() == 0 {
		_ = th.GetUint64(b.At(63))
		th.Free(b)
	}
	th.Barrier()
}

func runTelemetry(t *testing.T, c Config) (RunStats, *telemetry.Telemetry) {
	t.Helper()
	tel := telemetry.New()
	c.Telemetry = tel
	st := mustRun(t, c, telemetryWorkload)
	return st, tel
}

// Two identically-seeded runs must produce identical telemetry — the
// Prometheus snapshot is the run's deterministic fingerprint.
func TestTelemetryDeterministic(t *testing.T) {
	for _, prof := range []*transport.Profile{transport.GM(), transport.LAPI()} {
		c := cfg(4, 2, prof, DefaultCache())
		_, tel1 := runTelemetry(t, c)
		_, tel2 := runTelemetry(t, c)
		s1, s2 := tel1.Snapshot(), tel2.Snapshot()
		if s1 == "" {
			t.Fatalf("%s: empty snapshot", prof.Name)
		}
		if s1 != s2 {
			t.Errorf("%s: identically-seeded runs differ:\n--- run1\n%s\n--- run2\n%s", prof.Name, s1, s2)
		}
		if len(tel1.Spans()) != len(tel2.Spans()) {
			t.Errorf("%s: span counts differ: %d vs %d", prof.Name, len(tel1.Spans()), len(tel2.Spans()))
		}
	}
}

// Telemetry must cost no virtual time: the same run with and without
// the layer attached finishes at the identical virtual instant with
// identical operation counts.
func TestTelemetryZeroVirtualCost(t *testing.T) {
	for _, prof := range []*transport.Profile{transport.GM(), transport.LAPI()} {
		c := cfg(4, 2, prof, DefaultCache())
		plain := mustRun(t, c, telemetryWorkload)
		instr, _ := runTelemetry(t, c)
		if plain.Elapsed != instr.Elapsed {
			t.Errorf("%s: telemetry changed virtual time: %v without, %v with",
				prof.Name, plain.Elapsed, instr.Elapsed)
		}
		if plain.Messages != instr.Messages || plain.NetBytes != instr.NetBytes {
			t.Errorf("%s: telemetry changed traffic: %d/%d vs %d/%d",
				prof.Name, plain.Messages, plain.NetBytes, instr.Messages, instr.NetBytes)
		}
	}
}

// The Chrome trace must be valid JSON with monotonically nondecreasing
// duration-event timestamps (what Perfetto requires to load it).
func TestTelemetryChromeTrace(t *testing.T) {
	_, tel := runTelemetry(t, cfg(4, 2, transport.GM(), DefaultCache()))
	var sb strings.Builder
	if err := tel.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string   `json:"name"`
			Ph   string   `json:"ph"`
			Ts   *float64 `json:"ts"`
			Dur  *float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	last, xEvents := math.Inf(-1), 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		xEvents++
		if ev.Ts == nil || ev.Dur == nil {
			t.Fatalf("X event %q missing ts/dur", ev.Name)
		}
		if *ev.Ts < last {
			t.Fatalf("X event %q out of order: ts %v after %v", ev.Name, *ev.Ts, last)
		}
		last = *ev.Ts
	}
	if xEvents == 0 {
		t.Fatal("trace has no duration events")
	}
}

// The Prometheus export must have exactly one TYPE line per family and
// no duplicate sample series.
func TestTelemetryPrometheusExport(t *testing.T) {
	_, tel := runTelemetry(t, cfg(4, 2, transport.GM(), DefaultCache()))
	out := tel.Snapshot()
	types := map[string]bool{}
	samples := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			name := strings.Fields(line)[2]
			if types[name] {
				t.Fatalf("duplicate metric family %s", name)
			}
			types[name] = true
			continue
		}
		key := line[:strings.LastIndex(line, " ")]
		if samples[key] {
			t.Fatalf("duplicate sample %s", key)
		}
		samples[key] = true
	}
	for _, want := range []string{
		"xlupc_ops_total", "xlupc_op_latency", "xlupc_addrcache_hits_total",
		"xlupc_pin_registrations_total", "xlupc_resource_busy_seconds",
		"xlupc_queue_pushes_total", "xlupc_run_elapsed_seconds",
	} {
		if !types[want] {
			t.Errorf("export missing family %s:\n%s", want, out)
		}
	}
}

// GET spans must attribute their phases: on GM every remote access runs
// its AM handler on the compute CPU, so the target-side handler time
// must be visible; attribution totals must cover the span durations.
func TestTelemetryGetAttribution(t *testing.T) {
	_, tel := runTelemetry(t, cfg(4, 2, transport.GM(), DefaultCache()))
	a := tel.Attribute("get")
	if a.Spans == 0 || a.Total <= 0 {
		t.Fatalf("no finished get spans: %+v", a)
	}
	var attributed int64
	for _, ph := range a.Phases {
		attributed += int64(ph.Total)
	}
	if attributed <= 0 || attributed > int64(a.Total) {
		t.Fatalf("attribution does not cover spans: %d of %d", attributed, a.Total)
	}
	for _, want := range []string{telemetry.PhaseWire, telemetry.PhaseRecv} {
		if a.Share(want) <= 0 {
			t.Errorf("get attribution missing %s phase: %+v", want, a.Phases)
		}
	}
	// Protocol labels must cover both fast and slow paths in a cached run.
	ops := promSeriesValues(tel.Snapshot())
	if ops[`xlupc_ops_total{op="get",proto="rdma"}`] == 0 {
		t.Error("no RDMA fast-path gets recorded")
	}
	if ops[`xlupc_ops_total{op="get",proto="eager"}`] == 0 {
		t.Error("no eager gets recorded")
	}
}

// Pin-table counters must surface in RunStats (satellite: mem counters).
func TestRunStatsPinCounters(t *testing.T) {
	st, _ := runTelemetry(t, cfg(4, 2, transport.GM(), DefaultCache()))
	if st.Pins == 0 {
		t.Error("RunStats.Pins is zero in a cached run")
	}
	if st.RegTime <= 0 {
		t.Error("RunStats.RegTime is zero despite registrations")
	}
	if st.Unpins == 0 || st.DeregTime <= 0 {
		t.Errorf("free must deregister: unpins=%d deregTime=%v", st.Unpins, st.DeregTime)
	}
}

// A hub attached to a coalescing run must survive a one-message frame,
// whose "saved" bytes are negative: the saving is published once, as a
// gauge equal to RunStats.Coal.SavedBytes, and the hub stays free.
func TestTelemetryWithCoalescing(t *testing.T) {
	c := coalCfg(4, 2, transport.GM(), DefaultCache())
	body := func(th *Thread) {
		a := th.AllAlloc("A", 64, 8, 8)
		th.Barrier()
		var buf [8]byte
		th.Sync(th.NbGet(buf[:], a.At(int64((th.ID()+2)%4)*8)))
		th.Barrier()
	}
	plain := mustRun(t, c, body)
	tel := telemetry.New()
	c.Telemetry = tel
	instr := mustRun(t, c, body)
	if plain.Coal.SavedBytes >= 0 {
		t.Fatalf("workload saved %d bytes: it must send one-message frames", plain.Coal.SavedBytes)
	}
	if got := promSeriesValues(tel.Snapshot())["xlupc_coalesce_saved_bytes"]; got != float64(instr.Coal.SavedBytes) {
		t.Errorf("gauge %v, RunStats.Coal.SavedBytes %d", got, instr.Coal.SavedBytes)
	}
	if plain.Elapsed != instr.Elapsed || plain.KernelEvents != instr.KernelEvents || plain.Coal.SavedBytes != instr.Coal.SavedBytes {
		t.Errorf("hub changed the run: %v/%d events/%d saved without, %v/%d/%d with",
			plain.Elapsed, plain.KernelEvents, plain.Coal.SavedBytes, instr.Elapsed, instr.KernelEvents, instr.Coal.SavedBytes)
	}
}
