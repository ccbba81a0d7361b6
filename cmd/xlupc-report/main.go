// Command xlupc-report reproduces the paper's entire evaluation
// section in one run: Figures 6–9 plus the miss-overhead and
// pinned-table claims, each annotated with the paper's published
// expectation so the output doubles as a reproduction record (see
// EXPERIMENTS.md). The sections, their order and the machines -full picks
// are bench.Report's; the command parses the flags, prints each section
// over one Sweep with one run table, and turns a failed section or write
// into a nonzero exit.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"xlupc/internal/bench"
	hostprof "xlupc/internal/prof"
)

func main() {
	full := flag.Bool("full", false, "run at the paper's largest scales (slower)")
	reps := flag.Int("reps", 10, "microbenchmark repetitions per point")
	seed := flag.Int64("seed", 1, "simulation seed")
	parallel := bench.RegisterParallel(nil)
	scale := flag.Bool("scale", false, "append the big-scale sweep (32k threads / 1k nodes with -full, 8k / 256 otherwise); virtual columns are deterministic, host columns are not")
	flightOn := flag.Bool("flight", false, "attach a flight recorder to the chaos/crash runs; a failing run dumps its last events per involved node to stderr (costs no virtual time: report figures are unchanged)")
	flightDump := flag.String("flight-dump", "", "write flight dumps to `path` instead of stderr (implies -flight); a clean report writes an on-demand representative capture there instead")
	pf := hostprof.Register(nil)
	flag.Parse()
	if err := bench.ParseSweepFlags(*reps, *parallel); err != nil {
		fmt.Fprintf(os.Stderr, "xlupc-report: %v\n", err)
		os.Exit(2)
	}
	fl, finishFlight, err := bench.ParseFlightFlags(*flightOn, *flightDump)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xlupc-report: %v\n", err)
		os.Exit(2)
	}
	s := bench.Sweep{Seed: *seed, Workers: *parallel, Flight: fl}.WithRunTable()
	stopProf := pf.MustStart("xlupc-report")

	// Everything goes through one buffered, flush-checked writer: a
	// full disk or closed pipe must turn into a nonzero exit, not a
	// silently truncated reproduction record.
	w := bufio.NewWriter(os.Stdout)
	fail := func(err error) {
		w.Flush()
		fmt.Fprintf(os.Stderr, "xlupc-report: %v\n", err)
		stopProf()
		os.Exit(1)
	}

	for _, sec := range bench.Report(*full, *reps, *scale) {
		if err := sec.Write(w, s); err != nil {
			fail(err)
		}
	}
	if err := finishFlight(s); err != nil {
		fail(err)
	}
	if err := w.Flush(); err != nil {
		fail(fmt.Errorf("writing report: %w", err))
	}
	stopProf()
}
