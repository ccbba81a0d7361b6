package bench

import (
	"io"
	"strings"
	"testing"

	"xlupc/internal/core"
	"xlupc/internal/transport"
)

// One report simulates each §4.6 Field telemetry run once: its two
// sections read four runs through the sweep's run table, of which three
// configurations differ, and the uncached GM run both of them print is
// among the table's. -scale appends one section, last.
func TestReportFieldRunsOnce(t *testing.T) {
	s := Sweep{Seed: 1}.WithRunTable()
	secs := Report(false, 1, false)
	for _, sec := range secs {
		if strings.Contains(sec.Title, "§4.6") {
			if err := sec.Write(io.Discard, s); err != nil {
				t.Fatal(err)
			}
		}
	}
	gmOff := s.point("field", transport.GM(), Scale{Threads: 16, Nodes: 4}, core.NoCache()).key()
	if _, ok := s.tab.field[gmOff]; !ok || s.tab.fieldRequests != 4 || s.tab.fieldSimulated != 3 {
		t.Errorf("the §4.6 sections read %d Field runs and simulated %d (uncached GM among them: %v); want 4 read, 3 simulated, uncached GM among them",
			s.tab.fieldRequests, s.tab.fieldSimulated, ok)
	}
	scaled := Report(true, 1, true)
	if len(scaled) != len(secs)+1 || !strings.HasPrefix(scaled[len(secs)].Title, "Big-scale sweep") {
		t.Errorf("-scale gives %d sections, want %d ending with the big-scale sweep", len(scaled), len(secs)+1)
	}
}

// BenchmarkReportSections times xlupc-report -parallel 1 -seed 1 section
// by section: it walks Report's table in order on one sweep with one run
// table, as the command does, and reports each section's ns/op, B/op
// and allocs/op, plus, for a section that reads the run table, the
// points it asked for and the runs it simulated. Run it at one
// iteration, which costs about one report per -count:
//
//	go test -run '^$' -bench BenchmarkReportSections -benchtime 1x ./internal/bench/
//
// The k-th run of every section prints over the k-th sweep, so each
// -count repetition walks a report of its own; more than one iteration
// re-prints a section whose runs its table already holds.
func BenchmarkReportSections(b *testing.B) {
	var sweeps []Sweep
	for _, sec := range Report(false, 10, false) {
		k := 0
		b.Run(sec.Title, func(b *testing.B) {
			if k == len(sweeps) {
				sweeps = append(sweeps, Sweep{Seed: 1, Workers: 1}.WithRunTable())
			}
			s := sweeps[k]
			k++
			b.ReportAllocs()
			requests, simulated := s.tab.requests, s.tab.simulated
			for range b.N {
				if err := sec.Write(io.Discard, s); err != nil {
					b.Fatal(err)
				}
			}
			if n := s.tab.requests - requests; n > 0 {
				b.ReportMetric(float64(n)/float64(b.N), "points/op")
				b.ReportMetric(float64(s.tab.simulated-simulated)/float64(b.N), "simulated/op")
			}
		})
	}
}
