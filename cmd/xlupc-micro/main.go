// Command xlupc-micro runs the GET/PUT latency microbenchmarks of the
// paper's Figures 6 and 7 and the miss-overhead measurement of §6.
//
// Usage:
//
//	xlupc-micro -op get            # Figure 6, GET panel (both transports)
//	xlupc-micro -op put            # Figure 6, PUT panel
//	xlupc-micro -absolute          # Figure 7 (absolute small-message GET latency)
//	xlupc-micro -missoverhead      # §6 miss-overhead claim
//	xlupc-micro -coalesce          # split-phase batching vs blocking, per batch size
//	xlupc-micro -gups              # remote-atomic GUPS figure (three protocols, both transports)
package main

import (
	"flag"
	"fmt"
	"os"

	"xlupc/internal/bench"
	hostprof "xlupc/internal/prof"
	"xlupc/internal/transport"
)

// microFlags are the command's flag values that select and shape a
// figure.
type microFlags struct {
	op                             string
	reps, parallel                 int
	absolute, miss, coalesce, gups bool
	threads, nodes                 int
	updates, words                 int64
}

// opFor checks the flags the selected figure reads and resolves -op,
// which only Figure 6 reads, so that a bad value fails before any sweep
// starts.
func opFor(f microFlags) (bench.Op, error) {
	if err := bench.ParseSweepFlags(f.reps, f.parallel); err != nil {
		return 0, err
	}
	switch {
	case f.gups:
		if err := bench.ValidateScale(f.threads, f.nodes); err != nil {
			return 0, err
		}
		if f.updates <= 0 || f.words <= 0 {
			return 0, fmt.Errorf("-updates (%d) and -words (%d) must be positive", f.updates, f.words)
		}
	case f.absolute, f.miss, f.coalesce:
	case f.op == "get":
		return bench.OpGet, nil
	case f.op == "put":
		return bench.OpPut, nil
	default:
		return 0, fmt.Errorf("unknown op %q (want get or put)", f.op)
	}
	return 0, nil
}

func main() {
	var f microFlags
	flag.StringVar(&f.op, "op", "get", "operation for the Figure 6 sweep: get or put")
	flag.IntVar(&f.reps, "reps", 20, "measured repetitions per point")
	seed := flag.Int64("seed", 1, "simulation seed")
	flag.BoolVar(&f.absolute, "absolute", false, "emit Figure 7 (absolute latencies) instead")
	flag.BoolVar(&f.miss, "missoverhead", false, "emit the miss-overhead measurement instead")
	flag.BoolVar(&f.coalesce, "coalesce", false, "emit the split-phase coalescing batch-size figure instead")
	flag.BoolVar(&f.gups, "gups", false, "emit the GUPS remote-atomic figure instead (GET+PUT vs split-phase vs remote-atomic)")
	flag.IntVar(&f.threads, "threads", 8, "UPC threads for the GUPS figure")
	flag.IntVar(&f.nodes, "nodes", 4, "cluster nodes for the GUPS figure")
	flag.Int64Var(&f.updates, "updates", 96, "updates per thread for the GUPS figure")
	flag.Int64Var(&f.words, "words", 256, "table words per thread for the GUPS figure")
	parallel := bench.RegisterParallel(nil)
	pf := hostprof.Register(nil)
	flag.Parse()
	f.parallel = *parallel
	op, err := opFor(f)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xlupc-micro: %v\n", err)
		os.Exit(2)
	}
	s := bench.Sweep{Seed: *seed, Workers: f.parallel}
	stopProf := pf.MustStart("xlupc-micro")
	defer stopProf()

	switch {
	case f.gups:
		o := bench.GUPSOpts{Words: f.words, Updates: f.updates}
		sc := bench.Scale{Threads: f.threads, Nodes: f.nodes}
		for _, prof := range []*transport.Profile{transport.GM(), transport.LAPI()} {
			s.PrintGUPS(os.Stdout, prof, sc, o)
			fmt.Println()
		}
	case f.coalesce:
		s.PrintCoalesce(os.Stdout, f.reps)
	case f.miss:
		fmt.Println("# Miss overhead: cache machinery enabled but every lookup missing")
		s.PrintMissOverhead(os.Stdout)
	case f.absolute:
		s.PrintFig7(os.Stdout, f.reps)
	default:
		s.PrintFig6(os.Stdout, op, f.reps)
	}
}
