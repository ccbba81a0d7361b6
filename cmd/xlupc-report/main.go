// Command xlupc-report reproduces the paper's entire evaluation
// section in one run: Figures 6–9 plus the miss-overhead and
// pinned-table claims, each annotated with the paper's published
// expectation so the output doubles as a reproduction record (see
// EXPERIMENTS.md).
//
// The -full flag runs the sweeps at the paper's largest scales
// (2048 threads / 512 nodes); the default is a faster subset.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"

	"xlupc/internal/bench"
	hostprof "xlupc/internal/prof"
	"xlupc/internal/transport"
)

func section(w io.Writer, title, expectation string) {
	fmt.Fprintln(w)
	fmt.Fprintln(w, "==============================================================")
	fmt.Fprintln(w, title)
	fmt.Fprintln(w, "paper:", expectation)
	fmt.Fprintln(w, "==============================================================")
}

// machinesFor resolves -full and -reps into the largest machine of the
// GM, LAPI and Figure 8 sweeps, so that a bad -reps or -parallel fails
// before any figure runs.
func machinesFor(full bool, reps, parallel int) (maxGM, maxLAPI, maxFig8 int, err error) {
	if err := bench.ParseSweepFlags(reps, parallel); err != nil {
		return 0, 0, 0, err
	}
	if full {
		return 2048, 448, 2048, nil
	}
	return 256, 128, 512, nil
}

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
	maxGM, maxLAPI, maxFig8, err := machinesFor(*full, *reps, *parallel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xlupc-report: %v\n", err)
		os.Exit(2)
	}
	bench.SetParallelism(*parallel)

	finishFlight, err := bench.ParseFlightFlags(*flightOn, *flightDump)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xlupc-report: %v\n", err)
		os.Exit(2)
	}
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

	section(w, "Figure 6 (left): GET latency improvement",
		"GM ~30% / LAPI ~16% small; ~40% mid (1-16KB); fading to 0 when bandwidth-bound")
	bench.PrintFig6(w, bench.OpGet, *reps, *seed)

	section(w, "Figure 6 (right): PUT latency improvement",
		"GM ~0 small then positive mid; LAPI negative down to ~-200% (hence PUT cache disabled on LAPI)")
	bench.PrintFig6(w, bench.OpPut, *reps, *seed)

	section(w, "Figure 7: absolute GET latency, small messages",
		"both transports in the few-microsecond range; cached consistently below uncached")
	bench.PrintFig7(w, *reps, *seed)

	section(w, "Figure 8a: Pointer hit rate vs scale and cache size",
		"degrades with node count, earlier for smaller caches")
	bench.PrintFig8(w, "pointer", bench.GMScales(maxFig8), []int{4, 10, 100}, *seed)

	section(w, "Figure 8b: Neighborhood hit rate vs scale and cache size",
		"insignificantly small working set: flat, high hit rate at every size")
	bench.PrintFig8(w, "neighborhood", bench.GMScales(maxFig8), []int{4, 10, 100}, *seed)

	section(w, "Figure 9a: DIS stressmarks, hybrid GM",
		"Pointer 30-60%, Update 11-22%, Neighborhood 10-20%, Field 35-40%")
	bench.PrintFig9(w, transport.GM(), bench.GMScales(maxGM), *seed)

	section(w, "Figure 9b: DIS stressmarks, hybrid LAPI",
		"Pointer/Update/Neighborhood comparable to GM; Field not measurable (~0)")
	bench.PrintFig9(w, transport.LAPI(), bench.LAPIScales(maxLAPI), *seed)

	section(w, "Miss overhead (conclusions, §6)",
		"unsuccessful caching attempts cost typically 1.5%, never worse than 2%")
	for _, prof := range []*transport.Profile{transport.GM(), transport.LAPI()} {
		fmt.Fprintf(w, "%8s %6.2f%%\n", prof.Name, bench.MissOverhead(prof, *seed))
	}

	section(w, "Pinned address table occupancy (§4.5)",
		"a table of 10 entries is more than enough for well-behaved UPC applications")
	peaks := bench.PinUsage(transport.GM(), bench.Scale{Threads: 16, Nodes: 4}, *seed)
	for _, mark := range []string{"pointer", "update", "neighborhood", "field"} {
		fmt.Fprintf(w, "%14s peak pinned entries: %d\n", mark, peaks[mark])
	}

	section(w, "Reliability: RDMA NACKs and chaos counters by transport",
		"NACK/invalidate/fallback keeps pin-starved runs correct; reliable delivery absorbs 2% loss (see xlupc-chaos for curves)")
	bench.PrintReliability(w, *seed)

	section(w, "SVD metadata footprint (§2.1)",
		"directory replicas stay O(objects) per node; the rejected full table is O(nodes x objects)")
	bench.PrintFootprint(w)

	section(w, "Field analysis (§4.6)",
		"without the cache, remote access times at the overhangs are abnormally large on GM; RDMA removes the target CPU from the path")
	bench.PrintFieldTrace(w, *seed)

	section(w, "Phase attribution (§4.6, telemetry)",
		"the abnormal GM access times are target-CPU time: AM handlers stall behind the busy compute CPU; LAPI's dedicated comm processor absorbs them")
	bench.PrintPhaseBreakdown(w, *seed)

	if *scale {
		o := bench.DefaultBigOpts()
		if !*full {
			o.Threads, o.Nodes = 8192, 256
		}
		section(w, "Big-scale sweep: the simulator's own cost at scale",
			"n/a — host-side scaling figure; only the virtual columns are deterministic")
		if _, err := bench.PrintScale(w, o); err != nil {
			fail(err)
		}
	}

	if err := finishFlight(*seed); err != nil {
		fail(err)
	}
	if err := w.Flush(); err != nil {
		fmt.Fprintf(os.Stderr, "xlupc-report: writing report: %v\n", err)
		stopProf()
		os.Exit(1)
	}
	stopProf()
}
