package telemetry

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"xlupc/internal/sim"
)

// --- distribution bucketing edge cases (zero, max, boundaries) ---

func TestBucketOfEdges(t *testing.T) {
	cases := []struct {
		v    sim.Time
		want int
	}{
		{-5, 0},
		{0, 0},
		{1, 1}, // [1,2)
		{2, 2}, // [2,4)
		{3, 2},
		{4, 3}, // power-of-two boundary lands in the next bucket
		{7, 3},
		{8, 4},
		{1 << 20, 21},
		{1<<20 - 1, 20},
		{math.MaxInt64, 63},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestBucketUpperEdges(t *testing.T) {
	if got := bucketUpper(0); got != 0 {
		t.Errorf("bucketUpper(0) = %d, want 0", got)
	}
	if got := bucketUpper(1); got != 1 {
		t.Errorf("bucketUpper(1) = %d, want 1", got)
	}
	if got := bucketUpper(3); got != 7 {
		t.Errorf("bucketUpper(3) = %d, want 7", got)
	}
	if got := bucketUpper(63); got != sim.Time(math.MaxInt64) {
		t.Errorf("bucketUpper(63) = %d, want MaxInt64", got)
	}
	if got := bucketUpper(histBuckets - 1); got != sim.Time(math.MaxInt64) {
		t.Errorf("bucketUpper(top) = %d, want MaxInt64", got)
	}
	// Consistency: every sample is <= the upper bound of its bucket.
	for _, v := range []sim.Time{0, 1, 2, 3, 4, 1000, 1 << 40, math.MaxInt64} {
		if up := bucketUpper(bucketOf(v)); v > up {
			t.Errorf("sample %d above its bucket upper bound %d", v, up)
		}
	}
}

// dist folds samples into a distribution.
func dist(samples ...sim.Time) *Dist {
	d := new(Dist)
	for _, v := range samples {
		d.fold(v)
	}
	return d
}

func TestHistogramZeroAndMax(t *testing.T) {
	h := dist(0, sim.Time(math.MaxInt64))
	if h.Count != 2 {
		t.Fatalf("count = %d, want 2", h.Count)
	}
	if h.Min != 0 {
		t.Errorf("min = %d, want 0", h.Min)
	}
	if h.Max != sim.Time(math.MaxInt64) {
		t.Errorf("max = %d, want MaxInt64", h.Max)
	}
	// Quantiles stay inside [min, max] even with extreme samples.
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		v := h.Quantile(q)
		if v < h.Min || v > h.Max {
			t.Errorf("Quantile(%v) = %d outside [min,max]", q, v)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := dist()
	if h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Fatal("empty distribution must report zeros")
	}
	// 90 fast samples, 10 slow ones: p50 is fast-sized, p99 slow-sized.
	for i := 0; i < 90; i++ {
		h.fold(1000) // ~1 ns
	}
	for i := 0; i < 10; i++ {
		h.fold(1000000) // ~1 µs
	}
	if h.Count != 100 {
		t.Fatalf("count = %d", h.Count)
	}
	if p := h.Quantile(0.5); p < 1000 || p >= 2048 {
		t.Errorf("p50 = %d, want in fast bucket [1000,2048)", p)
	}
	if p := h.Quantile(0.99); p < 524288 {
		t.Errorf("p99 = %d, want slow-bucket scale", p)
	}
	if h.Mean() != sim.Time((90*1000+10*1000000)/100) {
		t.Errorf("mean = %d", h.Mean())
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	// Empty distribution: every quantile (in range or not) is 0.
	empty := dist()
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		if v := empty.Quantile(q); v != 0 {
			t.Errorf("empty Quantile(%v) = %d, want 0", q, v)
		}
	}

	// Single occupied bucket: all samples in [1024, 2048). Every
	// quantile must land inside the observed [min, max], not at the
	// bucket's theoretical bounds.
	one := dist(1100, 1500, 1900)
	for _, q := range []float64{0.01, 0.5, 0.99} {
		if v := one.Quantile(q); v < 1100 || v > 1900 {
			t.Errorf("single-bucket Quantile(%v) = %d outside observed [1100,1900]", q, v)
		}
	}

	// q=0 is the exact minimum, q=1 the exact maximum — no bucket
	// rounding at the extremes.
	if v := one.Quantile(0); v != 1100 {
		t.Errorf("Quantile(0) = %d, want min 1100", v)
	}
	if v := one.Quantile(1); v != 1900 {
		t.Errorf("Quantile(1) = %d, want max 1900", v)
	}

	// Out-of-range q clamps to the extremes instead of misbehaving.
	if v := one.Quantile(-0.5); v != 1100 {
		t.Errorf("Quantile(-0.5) = %d, want min", v)
	}
	if v := one.Quantile(1.5); v != 1900 {
		t.Errorf("Quantile(1.5) = %d, want max", v)
	}

	// One sample: every quantile is that sample.
	single := dist(12345)
	for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
		if v := single.Quantile(q); v != 12345 {
			t.Errorf("one-sample Quantile(%v) = %d, want 12345", q, v)
		}
	}
}

func TestChromeTraceEscapesLabels(t *testing.T) {
	tel := New()
	// Op and proto names with every character class that could break a
	// hand-built JSON encoder: quotes, backslashes, newlines, unicode.
	s := tel.StartSpan(`get"evil`, 0, 0, 100)
	s.SetProto("rd\\ma\nv2\tπ")
	s.Phase(`phase"with\quotes`, 100, 200)
	s.Finish(300)
	var sb strings.Builder
	if err := tel.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Cat  string `json:"cat"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("trace with hostile labels is invalid JSON: %v\n%s", err, sb.String())
	}
	var gotOp, gotPhase bool
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Cat == "op" && ev.Name == `get"evil/rd\ma`+"\nv2\tπ":
			gotOp = true
		case ev.Cat == "phase" && ev.Name == `phase"with\quotes`:
			gotPhase = true
		}
	}
	if !gotOp || !gotPhase {
		t.Fatalf("escaped names did not round-trip (op=%v phase=%v):\n%s", gotOp, gotPhase, sb.String())
	}
}

// A table the exporter cannot render faithfully fails the export (and
// so panics Snapshot) instead of producing output.
func mustRejectTable(t *testing.T, why string, rows []Row, spans ...string) {
	t.Helper()
	tel := New()
	for _, op := range spans {
		tel.StartSpan(op, 0, 0, 0).Finish(10)
	}
	tel.Publish(rows)
	var sb strings.Builder
	if err := tel.WritePrometheus(&sb); err == nil {
		t.Fatalf("%s: exported\n%s", why, sb.String())
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: Snapshot did not panic", why)
		}
	}()
	tel.Snapshot()
}

func TestCounterPanicsOnDecrease(t *testing.T) {
	mustRejectTable(t, "a negative counter", []Row{{Name: "c", Kind: KindCounter, Value: -1}})
}

func TestKindConflictPanics(t *testing.T) {
	mustRejectTable(t, "a counter and a gauge of one name", []Row{
		{Name: "x", Kind: KindCounter, Value: 1},
		{Name: "x", Labels: `k="v"`, Kind: KindGauge, Value: 2},
	})
	mustRejectTable(t, "a table counter named like the span histograms", []Row{
		{Name: "xlupc_op_latency", Labels: `op="kv"`, Kind: KindCounter, Value: 1},
	}, "get")
	mustRejectTable(t, "one series twice", []Row{
		{Name: "x", Labels: `k="v"`, Kind: KindCounter, Value: 1},
		{Name: "x", Labels: `k="v"`, Kind: KindCounter, Value: 2},
	})
}

// --- nil-safety: a disabled layer must be a no-op everywhere ---

func TestNilTelemetryIsSafe(t *testing.T) {
	var tel *Telemetry
	tel.Publish([]Row{{Name: "a", Kind: KindCounter, Value: 1}})
	tel.AddCompute(0, 0, 10)
	if tel.Computes() != nil {
		t.Fatal("nil Computes must be empty")
	}
	s := tel.StartSpan("get", 0, 0, 0)
	if s != nil {
		t.Fatal("StartSpan on nil must return nil")
	}
	s.SetProto("rdma")
	s.MarkSplit()
	s.SetBytes(8)
	s.Phase(PhaseWire, 0, 10)
	s.Finish(10)
	if s.Dur() != 0 {
		t.Fatal("nil span must report zero")
	}
	if a := tel.Attribute("get"); a.Spans != 0 {
		t.Fatal("nil Attribute must be empty")
	}
	if tel.Snapshot() != "" {
		t.Fatal("nil Snapshot must be empty")
	}
	var sb strings.Builder
	if err := tel.WritePrometheus(&sb); err != nil || sb.Len() != 0 {
		t.Fatal("nil WritePrometheus must write nothing")
	}
	sb.Reset()
	if err := tel.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	if !json.Valid([]byte(sb.String())) {
		t.Fatal("nil Chrome trace must still be valid JSON")
	}
}

// --- spans and attribution ---

func TestSpanAttribution(t *testing.T) {
	tel := New()
	s := tel.StartSpan("get", 1, 0, 100)
	s.SetProto("eager")
	s.SetBytes(8)
	s.Phase(PhaseSend, 100, 150)
	s.Phase(PhaseWire, 150, 400)
	s.Phase(PhaseCPUWait, 400, 900)
	s.Phase("inverted", 50, 40) // dropped
	s.Finish(1000)

	open := tel.StartSpan("get", 1, 0, 2000) // never finished
	_ = open

	a := tel.Attribute("get")
	if a.Spans != 1 || a.Total != 900 {
		t.Fatalf("spans=%d total=%d", a.Spans, a.Total)
	}
	if d := a.Dominant(); d.Name != PhaseCPUWait || d.Total != 500 {
		t.Errorf("dominant = %+v, want cpu_wait 500", d)
	}
	if sh := a.Share(PhaseOther); math.Abs(sh-100.0/900) > 1e-9 {
		t.Errorf("other share = %v", sh)
	}
	if sh := TargetShare(a); math.Abs(sh-500.0/900) > 1e-9 {
		t.Errorf("target share = %v", sh)
	}
	// The export counts the finished span, not the open one.
	if snap := tel.Snapshot(); !strings.Contains(snap, `xlupc_ops_total{op="get",proto="eager"} 1`+"\n") {
		t.Errorf("ops counter missing:\n%s", snap)
	}
	var sb strings.Builder
	if err := tel.WriteAttribution(&sb, "get"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), PhaseCPUWait) {
		t.Errorf("table missing cpu_wait:\n%s", sb.String())
	}
}

// --- exporters ---

func TestChromeTraceValidAndMonotone(t *testing.T) {
	tel := New()
	for i := 0; i < 5; i++ {
		s := tel.StartSpan("get", i%2, i%3, sim.Time(1000*(5-i)))
		s.Phase(PhaseWire, s.Start+10, s.Start+500)
		s.Finish(s.Start + 900)
	}
	var sb strings.Builder
	if err := tel.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph string   `json:"ph"`
			Ts *float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, sb.String())
	}
	last := math.Inf(-1)
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		if ev.Ts == nil {
			t.Fatal("X event without ts")
		}
		if *ev.Ts < last {
			t.Fatalf("timestamps not monotone: %v after %v", *ev.Ts, last)
		}
		last = *ev.Ts
	}
	if last == math.Inf(-1) {
		t.Fatal("no X events emitted")
	}
}

func TestPrometheusNoDuplicateFamilies(t *testing.T) {
	tel := New()
	tel.Publish([]Row{
		{Name: "xlupc_msgs_total", Labels: `profile="lapi"`, Kind: KindCounter, Value: 4},
		{Name: "xlupc_cache_hit_rate", Kind: KindGauge, Value: 0.75},
		{Name: "xlupc_msgs_total", Labels: `profile="gm"`, Kind: KindCounter, Value: 3},
	})
	tel.StartSpan("get", 0, 0, 0).Finish(12345)
	tel.StartSpan("put", 0, 0, 0).Finish(54321)
	out := tel.Snapshot()

	seenType := map[string]bool{}
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		name := strings.Fields(line)[2]
		if seenType[name] {
			t.Fatalf("duplicate TYPE line for %s:\n%s", name, out)
		}
		seenType[name] = true
	}
	for _, want := range []string{
		`xlupc_msgs_total{profile="gm"} 3`,
		`xlupc_msgs_total{profile="lapi"} 4`,
		"xlupc_cache_hit_rate 0.75",
		`xlupc_op_latency_count{op="get"} 1`,
		`le="+Inf"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Deterministic: a second rendering is identical.
	if tel.Snapshot() != out {
		t.Fatal("snapshot not deterministic")
	}
}

// Compute intervals and the split mark feed the state view only: a hub
// that carries them exports the same bytes as one that does not.
func TestComputeAndSplitStayOutOfExports(t *testing.T) {
	export := func(extra bool) string {
		tel := New()
		s := tel.StartSpan("get", 1, 0, 100)
		s.SetProto("eager")
		if extra {
			s.MarkSplit()
			tel.AddCompute(1, 0, 100)
		}
		s.Finish(400)
		var sb strings.Builder
		if err := tel.WriteChromeTrace(&sb); err != nil {
			t.Fatal(err)
		}
		if err := tel.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	if export(true) != export(false) {
		t.Fatalf("exports differ:\n%s\nvs\n%s", export(true), export(false))
	}
}
