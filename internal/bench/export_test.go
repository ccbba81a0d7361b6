package bench

import (
	"strings"
	"testing"

	"xlupc/internal/core"
	"xlupc/internal/transport"
)

// exportsAt runs one telemetry-instrumented stressmark with the given
// sweep parallelism and renders both exports.
func exportsAt(t *testing.T, workers int) (chrome, prom string) {
	t.Helper()
	tel, _, err := Sweep{Seed: 7, Workers: workers}.PhaseRun("pointer", transport.GM(), Scale{Threads: 8, Nodes: 4},
		core.DefaultCache())
	if err != nil {
		t.Fatal(err)
	}
	var cb, pb strings.Builder
	if err := tel.WriteChromeTrace(&cb); err != nil {
		t.Fatal(err)
	}
	if err := tel.WritePrometheus(&pb); err != nil {
		t.Fatal(err)
	}
	return cb.String(), pb.String()
}

// The exports feed byte-comparison tooling (testdata/behaviour.sum,
// diff-based regression checks), so a sequential run and a -parallel
// run of the same seed must render byte-identical Chrome-trace and
// Prometheus documents — host goroutine scheduling must never leak
// into them.
func TestExportsIdenticalSequentialVsParallel(t *testing.T) {
	seqChrome, seqProm := exportsAt(t, 1)
	parChrome, parProm := exportsAt(t, 4)
	if seqChrome != parChrome {
		t.Error("Chrome trace differs between sequential and parallel runs of the same seed")
	}
	if seqProm != parProm {
		t.Error("Prometheus export differs between sequential and parallel runs of the same seed")
	}
	// And across repeated identically-configured runs.
	againChrome, againProm := exportsAt(t, 4)
	if againChrome != parChrome || againProm != parProm {
		t.Error("exports differ between two identically-seeded runs")
	}
	if seqChrome == "" || seqProm == "" {
		t.Fatal("exports are empty")
	}
}
