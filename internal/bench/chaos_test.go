package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"xlupc/internal/transport"
)

// The degradation sweep must be a pure function of its inputs: two
// invocations, byte for byte.
func TestPrintChaosDeterministic(t *testing.T) {
	losses := []float64{0, 0.02}
	sc := Scale{Threads: 8, Nodes: 4}
	var a, b bytes.Buffer
	PrintChaos(&a, "pointer", transport.GM(), sc, losses, 7)
	PrintChaos(&b, "pointer", transport.GM(), sc, losses, 7)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("same seed, different output:\n%s\nvs\n%s", a.String(), b.String())
	}
}

// Checksums must not move with the loss rate, and a lossy point must
// actually have injected something.
func TestChaosChecksumsStableAcrossLoss(t *testing.T) {
	for _, prof := range []*transport.Profile{transport.GM(), transport.LAPI()} {
		pts := ChaosSweep("update", prof, Scale{Threads: 8, Nodes: 4}, []float64{0, 0.03}, 5)
		if pts[1].Checksum != pts[0].Checksum {
			t.Fatalf("%s: checksum moved with loss: %x vs %x", prof.Name, pts[0].Checksum, pts[1].Checksum)
		}
		if pts[0].Run.Fault.Drops != 0 || pts[0].Run.Rel.Retransmits != 0 {
			t.Fatalf("%s: loss-free point injected hazards: %+v", prof.Name, pts[0])
		}
		if pts[1].Run.Fault.Drops == 0 || pts[1].Run.Rel.Retransmits == 0 {
			t.Fatalf("%s: lossy point injected nothing: %+v", prof.Name, pts[1])
		}
	}
}

// The reliability table must show both failure paths working: NACKs
// with cache invalidations from pin starvation, and retransmissions
// from loss.
func TestReliabilityTable(t *testing.T) {
	// Seed 20 is the regression seed of the orphan retransmit timer: an
	// ACK overtaken by its own retransmit used to end that run with a
	// delivered packet reported undeliverable (runChaosMark panics).
	for _, seed := range []int64{7, 20} {
		rows := ReliabilityTable(seed)
		if len(rows) != 2 {
			t.Fatalf("seed %d: rows: %d", seed, len(rows))
		}
		for _, r := range rows {
			if r.Nack.RDMANacks == 0 || r.Nack.Cache.Invalidations == 0 {
				t.Errorf("seed %d, %s: pin churn produced no NACK/invalidation (%+v)", seed, r.Transport, r)
			}
			if r.Chaos.Fault.Drops == 0 || r.Chaos.Rel.Retransmits == 0 || r.Chaos.Rel.Acks == 0 {
				t.Errorf("seed %d, %s: chaos run did no reliability work (%+v)", seed, r.Transport, r)
			}
		}
	}
}

// What a clean -flight-dump run leaves behind is FlightCapture's dump:
// JSONL records, a blank line, then a '#'-prefixed human-readable tail.
// Every other line must parse as a JSON object, and there must be at
// least one record.
func TestFlightCaptureShape(t *testing.T) {
	var buf bytes.Buffer
	if err := FlightCapture(&buf, 7); err != nil {
		t.Fatal(err)
	}
	records := 0
	for i, line := range strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d is not a JSON object: %q (%v)", i+1, line, err)
		}
		records++
	}
	if records == 0 {
		t.Fatal("the capture holds no record")
	}
}
