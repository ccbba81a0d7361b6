package bench

import (
	"strings"
	"testing"
)

func TestPrintFootprintShape(t *testing.T) {
	var sb strings.Builder
	PrintFootprint(&sb)
	out := sb.String()
	if !strings.Contains(out, "SVD replica") || !strings.Contains(out, "full table") {
		t.Fatalf("footprint table malformed:\n%s", out)
	}
	if !strings.Contains(out, "131072") {
		t.Fatalf("footprint table missing BlueGene-scale row:\n%s", out)
	}
	// The SVD column must be identical on every row (node-independent);
	// verify by counting distinct second-column values.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	svdVals := map[string]bool{}
	for _, l := range lines[2:] {
		f := strings.Fields(l)
		if len(f) == 3 {
			svdVals[f[1]] = true
		}
	}
	if len(svdVals) != 1 {
		t.Fatalf("SVD footprint varies with node count: %v", svdVals)
	}
}

func TestPrintFieldTraceShowsWaitReduction(t *testing.T) {
	var sb strings.Builder
	Sweep{Seed: 1}.PrintFieldTrace(&sb)
	out := sb.String()
	if !strings.Contains(out, "without cache") || !strings.Contains(out, "with cache") {
		t.Fatalf("field trace output malformed:\n%s", out)
	}
	if !strings.Contains(out, "GET-wait") {
		t.Fatalf("field trace output lacks GET-wait lines:\n%s", out)
	}
}
