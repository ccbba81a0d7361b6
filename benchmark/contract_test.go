package main

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON mirrors the keys of ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

// Every name the code emits is in BENCHMARK.json with the same unit, and
// the other way round.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)

	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("workloads: BENCHMARK.json has %v, the code %v", names, workloadNames)
	}

	compare := func(kind string, code []metricDef, file map[string]string) {
		for _, m := range code {
			if unit, ok := file[m.Name]; !ok {
				t.Errorf("%s metric %s is emitted but not in BENCHMARK.json", kind, m.Name)
			} else if unit != m.Unit {
				t.Errorf("%s metric %s: unit %q in the code, %q in BENCHMARK.json", kind, m.Name, m.Unit, unit)
			}
			delete(file, m.Name)
		}
		for name := range file {
			t.Errorf("%s metric %s is in BENCHMARK.json but never emitted", kind, name)
		}
	}
	e2e := map[string]string{}
	for _, m := range b.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	compare("end-to-end", endToEndMetrics, e2e)
	layer := map[string]string{}
	for _, m := range b.PerLayer {
		layer[m.Name] = m.Unit
	}
	compare("per-layer", perLayerMetrics(), layer)
}

// The limits the driver refuses a BENCHMARK.json over.
func TestBenchmarkJSONWithinLimits(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if n := len(b.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(b.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(b.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", b.RunSeconds)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(name, unit, better string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("name %q is malformed or used twice", name)
		}
		seen[name] = true
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("%s: unit %q is malformed", name, unit)
		}
		if better != "" && better != "lower" && better != "higher" {
			t.Errorf("%s: better %q", name, better)
		}
	}
	for _, w := range b.Workloads {
		check(w.Name, "", "")
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range b.EndToEnd {
		check(m.Name, m.Unit, m.Better)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v, want (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range b.PerLayer {
		check(m.Name, m.Unit, m.Better)
	}
	for _, p := range b.Paths {
		if p != "benchmark" {
			t.Errorf("path %q: the benchmark lives in benchmark/ alone", p)
		}
	}
}

func TestSmokeRunsStayOutOfTheLedger(t *testing.T) {
	err := run([]string{"-smoke", "-out", "BENCH_12.json"})
	if err == nil || !strings.Contains(err.Error(), "smoke") {
		t.Fatalf("a smoke run written to BENCH_12.json: err = %v", err)
	}
}
