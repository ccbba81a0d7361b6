// Command xlupc-cache runs the address-cache size study of the paper's
// Figure 8: hit rates of the Pointer and Neighborhood stressmarks as
// the machine grows, for cache capacities 4, 10 and 100. It also hosts
// the two memory-pressure figures: the alloc/free churn storm over the
// pin-policy ladder (-pressure) and the fixed-vs-adaptive address-cache
// sizing comparison (-adapt).
//
// Usage:
//
//	xlupc-cache                       # both Figure 8 panels up to 512-128
//	xlupc-cache -mark pointer -maxthreads 2048
//	xlupc-cache -pressure             # churn storm, full policy ladder
//	xlupc-cache -pressure -pin-policy cost -lazy-unpin -pin-budget 0.5
//	xlupc-cache -adapt                # adaptive cache sizing figure
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"xlupc/internal/bench"
	"xlupc/internal/dis"
	"xlupc/internal/mem"
	hostprof "xlupc/internal/prof"
	"xlupc/internal/transport"
)

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "xlupc-cache: %v\n", err)
	os.Exit(2)
}

// fig8For resolves -mark and -maxthreads into the panels and scales of
// Figure 8, and checks -parallel, so that a bad value fails before
// anything runs: a misspelt stressmark, a -maxthreads below the smallest
// machine, which would print every panel with no rows, or a negative
// worker count.
func fig8For(mark string, maxThreads, parallel int) (marks []string, scales []bench.Scale, err error) {
	if err := bench.ValidateParallel(parallel); err != nil {
		return nil, nil, err
	}
	marks = []string{"pointer", "neighborhood"}
	if mark != "both" {
		if _, err := dis.ByName(mark); err != nil {
			return nil, nil, err
		}
		marks = []string{mark}
	}
	if scales = bench.GMScales(maxThreads); len(scales) == 0 {
		return nil, nil, fmt.Errorf("-maxthreads (%d) must be at least %d, the smallest gm machine",
			maxThreads, bench.GMScales(math.MaxInt32)[0].Threads)
	}
	return marks, scales, nil
}

// adaptFor resolves -threads and -nodes into the machine of the
// adaptive-sizing figure, so that a machine it cannot run on (fewer than
// three nodes: it needs a hot peer and a cold one besides its own) fails
// before anything runs.
func adaptFor(threads, nodes int) (bench.Scale, error) {
	sc := bench.AdaptScale()
	if threads > 0 || nodes > 0 {
		sc = bench.Scale{Threads: threads, Nodes: nodes}
	}
	return sc, bench.ValidateAdapt(sc)
}

func main() {
	mark := flag.String("mark", "both", "stressmark: pointer, neighborhood or both")
	maxThreads := flag.Int("maxthreads", 512, "largest thread count of the sweep (paper: 2048)")
	capsFlag := flag.String("caps", "4,10,100", "comma-separated cache capacities")
	pressure := flag.Bool("pressure", false, "run the memory-pressure churn storm instead of Figure 8")
	adapt := flag.Bool("adapt", false, "run the adaptive address-cache sizing figure instead of Figure 8")
	pinPolicy := flag.String("pin-policy", "all", "pressure ladder rung: all, pin-all, lru, clock or cost")
	pinBudget := flag.String("pin-budget", "0.34,0.67,1.0", "pressure pin budgets as fractions of the pinned working set")
	lazyUnpin := flag.Bool("lazy-unpin", false, "add the lazy-unpin registration cache to the selected -pin-policy")
	rounds := flag.Int("rounds", 0, "churn rounds per pressure run (0 = figure default)")
	threads := flag.Int("threads", 0, "UPC threads for -pressure/-adapt (0 = figure default)")
	nodes := flag.Int("nodes", 0, "cluster nodes for -pressure/-adapt (0 = figure default)")
	seed := flag.Int64("seed", 1, "simulation seed")
	parallel := bench.RegisterParallel(nil)
	pf := hostprof.Register(nil)
	flag.Parse()
	marks, scales, err := fig8For(*mark, *maxThreads, *parallel)
	if err != nil {
		fatal(err)
	}
	s := bench.Sweep{Seed: *seed, Workers: *parallel}
	stopProf := pf.MustStart("xlupc-cache")
	defer stopProf()

	switch {
	case *pressure:
		o := bench.DefaultPressure()
		var err error
		if o.Fracs, err = bench.ParseFracs("-pin-budget", *pinBudget); err != nil {
			fatal(err)
		}
		if *rounds != 0 {
			if err := bench.ValidatePositive("-rounds", int64(*rounds)); err != nil {
				fatal(err)
			}
			o.Rounds = *rounds
		}
		if *threads > 0 || *nodes > 0 {
			o.Scale = bench.Scale{Threads: *threads, Nodes: *nodes}
		}
		if err := bench.ValidateScale(o.Scale.Threads, o.Scale.Nodes); err != nil {
			fatal(err)
		}
		if *pinPolicy != "all" {
			v := *pinPolicy
			if v != "pin-all" {
				if _, err := mem.ParseEvictor(v); err != nil {
					fatal(err)
				}
			}
			if *lazyUnpin {
				v += "+lazy"
			}
			o.Variants = []string{v}
		} else if *lazyUnpin {
			o.Variants = []string{"lru+lazy", "cost+lazy"}
		}
		s.PrintPressure(os.Stdout, transport.GM(), o)
	case *adapt:
		sc, err := adaptFor(*threads, *nodes)
		if err != nil {
			fatal(err)
		}
		if err := s.PrintAdaptCache(os.Stdout, transport.GM(), sc); err != nil {
			fatal(err)
		}
	default:
		var caps []int
		for _, c := range strings.Split(*capsFlag, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(c))
			if err != nil {
				fmt.Fprintf(os.Stderr, "xlupc-cache: bad capacity %q\n", c)
				os.Exit(2)
			}
			caps = append(caps, v)
		}
		for _, m := range marks {
			s.PrintFig8(os.Stdout, m, scales, caps)
			fmt.Println()
		}
	}
}
