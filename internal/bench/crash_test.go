package bench

import (
	"bytes"
	"testing"

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
		if base.Crash.Crashes != 0 || base.Crash.StaleNacks != 0 || pts[0].SlowdownPct != 0 {
			t.Fatalf("%s: rate-0 point is not the crash-free baseline: %+v", prof.Name, pts[0])
		}
		if hit.Crash.Crashes == 0 {
			t.Fatalf("%s: rate %g produced no crashes: %+v", prof.Name, rates[1], pts[1])
		}
		if pts[1].Checksum != pts[0].Checksum {
			t.Fatalf("%s: checksum diverged across crash rates: %x vs %x", prof.Name, pts[1].Checksum, pts[0].Checksum)
		}
		if hit.Crash.Recovered == 0 || pts[1].RecoveryUs <= 0 {
			t.Fatalf("%s: no recoveries measured: %+v", prof.Name, pts[1])
		}
		if _, again := render(); out != again {
			t.Fatalf("%s: crash table not deterministic:\n%s\nvs\n%s", prof.Name, out, again)
		}
	}
}
