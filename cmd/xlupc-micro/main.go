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

func main() {
	op := flag.String("op", "get", "operation for the Figure 6 sweep: get or put")
	reps := flag.Int("reps", 20, "measured repetitions per point")
	seed := flag.Int64("seed", 1, "simulation seed")
	absolute := flag.Bool("absolute", false, "emit Figure 7 (absolute latencies) instead")
	miss := flag.Bool("missoverhead", false, "emit the miss-overhead measurement instead")
	coalesce := flag.Bool("coalesce", false, "emit the split-phase coalescing batch-size figure instead")
	gups := flag.Bool("gups", false, "emit the GUPS remote-atomic figure instead (GET+PUT vs split-phase vs remote-atomic)")
	threads := flag.Int("threads", 8, "UPC threads for the GUPS figure")
	nodes := flag.Int("nodes", 4, "cluster nodes for the GUPS figure")
	updates := flag.Int64("updates", 96, "updates per thread for the GUPS figure")
	words := flag.Int64("words", 256, "table words per thread for the GUPS figure")
	parallel := flag.Int("parallel", 0, "sweep worker goroutines (0 = GOMAXPROCS, 1 = sequential); results are identical either way")
	pf := hostprof.Register(nil)
	flag.Parse()
	if err := bench.ParseSweepFlags(*reps); err != nil {
		fmt.Fprintf(os.Stderr, "xlupc-micro: %v\n", err)
		os.Exit(2)
	}
	bench.SetParallelism(*parallel)
	stopProf := pf.MustStart("xlupc-micro")
	defer stopProf()

	switch {
	case *gups:
		if err := bench.ValidateScale(*threads, *nodes); err != nil {
			fmt.Fprintf(os.Stderr, "xlupc-micro: %v\n", err)
			os.Exit(2)
		}
		if *updates <= 0 || *words <= 0 {
			fmt.Fprintf(os.Stderr, "xlupc-micro: -updates (%d) and -words (%d) must be positive\n", *updates, *words)
			os.Exit(2)
		}
		o := bench.GUPSOpts{Words: *words, Updates: *updates, Seed: *seed}
		sc := bench.Scale{Threads: *threads, Nodes: *nodes}
		for _, prof := range []*transport.Profile{transport.GM(), transport.LAPI()} {
			bench.PrintGUPS(os.Stdout, prof, sc, o)
			fmt.Println()
		}
	case *coalesce:
		bench.PrintCoalesce(os.Stdout, *reps, *seed)
	case *miss:
		fmt.Println("# Miss overhead: cache machinery enabled but every lookup missing")
		for _, prof := range []*transport.Profile{transport.GM(), transport.LAPI()} {
			fmt.Printf("%8s %6.2f%%\n", prof.Name, bench.MissOverhead(prof, *seed))
		}
	case *absolute:
		bench.PrintFig7(os.Stdout, *reps, *seed)
	default:
		var o bench.Op
		switch *op {
		case "get":
			o = bench.OpGet
		case "put":
			o = bench.OpPut
		default:
			fmt.Fprintf(os.Stderr, "xlupc-micro: unknown op %q (want get or put)\n", *op)
			os.Exit(2)
		}
		bench.PrintFig6(os.Stdout, o, *reps, *seed)
	}
}
