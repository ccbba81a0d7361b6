package bench

import (
	"bytes"
	"testing"

	"xlupc/internal/flight"
	"xlupc/internal/sim"
	"xlupc/internal/transport"
)

// The crash sweep must be deterministic (byte-identical tables per
// seed), its baseline point crash-free, and its non-zero rates must
// actually exercise the crash/recovery machinery while preserving the
// stressmark checksum (CrashSweep panics internally on divergence).
func TestCrashSweepShapes(t *testing.T) {
	sc := Scale{Threads: 8, Nodes: 4}
	// The pointer mark spans only one or two 400 µs crash windows, so
	// the non-baseline rate must be high for the dice to hit inside it.
	rates := []float64{0, 0.9}
	for _, prof := range []*transport.Profile{transport.GM(), transport.LAPI()} {
		render := func() ([]CrashPoint, string) {
			var buf bytes.Buffer
			pts := Sweep{Seed: 1}.PrintCrash(&buf, "pointer", prof, sc, rates, 150*sim.Us)
			return pts, buf.String()
		}
		pts, out := render()
		base, hit := pts[0].Run, pts[1].Run
		if base.Flight[flight.KindCrash] != 0 || base.Flight[flight.KindStaleNack] != 0 || pts[0].SlowdownPct != 0 {
			t.Fatalf("%s: rate-0 point is not the crash-free baseline: %+v", prof.Name, pts[0])
		}
		if hit.Flight[flight.KindCrash] == 0 {
			t.Fatalf("%s: rate %g produced no crashes: %+v", prof.Name, rates[1], pts[1])
		}
		if pts[1].Checksum != pts[0].Checksum {
			t.Fatalf("%s: checksum diverged across crash rates: %x vs %x", prof.Name, pts[1].Checksum, pts[0].Checksum)
		}
		if hit.Flight[flight.KindRestart] == 0 || pts[1].RecoveryUs <= 0 {
			t.Fatalf("%s: no recoveries measured: %+v", prof.Name, pts[1])
		}
		if _, again := render(); out != again {
			t.Fatalf("%s: crash table not deterministic:\n%s\nvs\n%s", prof.Name, out, again)
		}
	}
}

// Field reads and writes its block through a view of node memory
// (core.Thread.Local). A crash restart relocates the node's chunks, so
// the view stops aliasing node memory and every later snapshot must be
// a real copy: the checksum under crashes must still be the crash-free
// one, in transparent mode on GM at 16 threads on 4 nodes.
func TestFieldCrashRelocation(t *testing.T) {
	pts := Sweep{Seed: 1}.CrashSweep("field", transport.GM(), Scale{Threads: 16, Nodes: 4}, []float64{0, 0.9}, 150*sim.Us)
	if hit := pts[1].Run; hit.Flight[flight.KindCrash] == 0 {
		t.Fatalf("no node restarted: %+v", pts[1])
	}
	if pts[1].Checksum != pts[0].Checksum {
		t.Fatalf("checksum under crashes %x, crash-free %x", pts[1].Checksum, pts[0].Checksum)
	}
	t.Logf("%d restarts, checksum %x", pts[1].Run.Flight[flight.KindCrash], pts[1].Checksum)
}
