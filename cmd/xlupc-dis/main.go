// Command xlupc-dis runs the DIS Stressmark sweeps of the paper's
// Figure 9: execution-time improvement from the remote address cache
// for Pointer, Update, Neighborhood and Field, across machine sizes,
// on the GM (MareNostrum) and LAPI (Power5) transport models.
//
// Usage:
//
//	xlupc-dis                         # both transports, default scales
//	xlupc-dis -profile gm -maxthreads 2048
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"xlupc/internal/bench"
	hostprof "xlupc/internal/prof"
	"xlupc/internal/transport"
)

// sweep is one transport's share of the figure.
type sweep struct {
	prof   *transport.Profile
	scales []bench.Scale
}

// sweepsFor resolves -profile, -maxthreads, -reps and -parallel into
// the sweeps to run, so that a bad value fails before any of them
// starts: an unknown profile, a -maxthreads below a chosen profile's
// smallest machine, which would print that profile's table with no
// rows, fewer than one rep per point, or a negative worker count.
func sweepsFor(profName string, maxThreads, reps, parallel int) ([]sweep, error) {
	if err := bench.ParseSweepFlags(reps, parallel); err != nil {
		return nil, err
	}
	names := []string{profName}
	if profName == "both" {
		names = []string{"gm", "lapi"}
	}
	var out []sweep
	for _, name := range names {
		prof := transport.ByName(name)
		if prof == nil {
			return nil, fmt.Errorf("unknown profile %q", name)
		}
		scalesOf := bench.GMScales
		if name == "lapi" {
			scalesOf = bench.LAPIScales
		}
		scales := scalesOf(maxThreads)
		if len(scales) == 0 {
			return nil, fmt.Errorf("-maxthreads (%d) must be at least %d, the smallest %s machine",
				maxThreads, scalesOf(math.MaxInt32)[0].Threads, name)
		}
		out = append(out, sweep{prof, scales})
	}
	return out, nil
}

func main() {
	profName := flag.String("profile", "both", "transport profile: gm, lapi or both")
	maxThreads := flag.Int("maxthreads", 512, "largest thread count (paper: 2048 GM, 448 LAPI)")
	seed := flag.Int64("seed", 1, "simulation seed")
	reps := flag.Int("reps", 1, "independent runs per point; >1 adds 95% confidence intervals (the paper's methodology)")
	parallel := bench.RegisterParallel(nil)
	pf := hostprof.Register(nil)
	flag.Parse()
	sweeps, err := sweepsFor(*profName, *maxThreads, *reps, *parallel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xlupc-dis: %v\n", err)
		os.Exit(2)
	}
	s := bench.Sweep{Seed: *seed, Workers: *parallel}
	stopProf := pf.MustStart("xlupc-dis")
	defer stopProf()

	for _, sw := range sweeps {
		if *reps > 1 {
			s.PrintFig9CI(os.Stdout, sw.prof, sw.scales, *reps)
		} else {
			s.PrintFig9(os.Stdout, sw.prof, sw.scales)
		}
		fmt.Println()
	}
}
