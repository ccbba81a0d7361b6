// Command xlupc-chaos runs the fault-injection degradation sweeps: a
// DIS stressmark plus the small-message microbenchmarks at a range of
// packet-loss rates, over the reliable-delivery layer, on the GM and
// LAPI transport models. It reports cache hit rate, GET/PUT latency,
// the cache's execution-time improvement, hazard/retry counters and
// the stressmark's self-verification checksum per loss rate.
//
// The checksum must be identical at every loss rate — the address
// cache's RDMA fast path staying correct under an unreliable fabric is
// the experiment's claim — and the command exits nonzero if it is not.
// All hazards derive from the seed, so two invocations with the same
// flags produce byte-identical output.
//
// With -crashes, the command instead sweeps node crash/restart rates:
// seeded per-node crash schedules with epoch-guarded RDMA and
// stale-cache recovery, reporting crash counts, stale-NACK traffic,
// parked retransmits, mean recovery time and slowdown per rate. The
// same rules apply: checksums must match the crash-free baseline and
// same-flag invocations are byte-identical.
//
// Usage:
//
//	xlupc-chaos                                   # both transports, default losses
//	xlupc-chaos -profile gm -mark field -losses 0,0.01,0.05 -seed 7
//	xlupc-chaos -crashes 0,0.05,0.2 -restart-delay 200
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"xlupc/internal/bench"
	"xlupc/internal/dis"
	hostprof "xlupc/internal/prof"
	"xlupc/internal/sim"
	"xlupc/internal/transport"
)

// parseRates parses a comma-separated probability list through the
// shared bench validator, exiting with status 2 on anything outside
// [0, 1) (NaN included).
func parseRates(flagName, list string) []float64 {
	rates, err := bench.ParseRates(flagName, list)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xlupc-chaos: %v\n", err)
		os.Exit(2)
	}
	return rates
}

// checkRun validates what every sweep of the command is built from —
// the stressmark, the machine, the restart window and the worker count
// — so that a bad value fails before any run starts.
func checkRun(mark string, threads, nodes int, restartUs float64, parallel int) error {
	if _, err := dis.ByName(mark); err != nil {
		return err
	}
	if err := bench.ValidateParallel(parallel); err != nil {
		return err
	}
	if err := bench.ValidateScale(threads, nodes); err != nil {
		return err
	}
	// A NaN or infinite delay would poison the virtual-time arithmetic of
	// every restart window; zero or negative would make restarts instant
	// (degenerate) and anything past a second dwarfs the simulated runs.
	if math.IsNaN(restartUs) || math.IsInf(restartUs, 0) || restartUs <= 0 || restartUs > 1e6 {
		return fmt.Errorf("bad -restart-delay %v (want 0 < µs <= 1e6)", restartUs)
	}
	return nil
}

func main() {
	mark := flag.String("mark", "pointer", "DIS stressmark: pointer, update, neighborhood or field")
	profName := flag.String("profile", "both", "transport profile: gm, lapi or both")
	threads := flag.Int("threads", 8, "UPC threads")
	nodes := flag.Int("nodes", 4, "cluster nodes")
	lossList := flag.String("losses", "0,0.005,0.01,0.02,0.05", "comma-separated packet-loss rates")
	crashList := flag.String("crashes", "", "comma-separated node crash rates; sweeps crash/restart recovery instead of packet loss")
	restartUs := flag.Float64("restart-delay", 150, "maximum node restart delay in µs for -crashes")
	seed := flag.Int64("seed", 1, "simulation seed (drives workload and every injected fault)")
	parallel := bench.RegisterParallel(nil)
	flightOn := flag.Bool("flight", false, "attach a flight recorder to every run; a failing run dumps its last events per involved node to stderr (costs no virtual time: sweep figures are unchanged)")
	flightDump := flag.String("flight-dump", "", "write flight dumps to `path` instead of stderr (implies -flight); a clean sweep writes an on-demand representative capture there instead")
	pf := hostprof.Register(nil)
	flag.Parse()
	if err := checkRun(*mark, *threads, *nodes, *restartUs, *parallel); err != nil {
		fmt.Fprintf(os.Stderr, "xlupc-chaos: %v\n", err)
		os.Exit(2)
	}
	fl, finishFlight, err := bench.ParseFlightFlags(*flightOn, *flightDump)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xlupc-chaos: %v\n", err)
		os.Exit(2)
	}
	s := bench.Sweep{Seed: *seed, Workers: *parallel, Flight: fl}
	crashing := *crashList != ""
	restart := sim.Time(*restartUs * float64(sim.Us))

	var losses, crashes []float64
	if crashing {
		crashes = parseRates("crash", *crashList)
		if len(crashes) == 0 {
			fmt.Fprintln(os.Stderr, "xlupc-chaos: no crash rates")
			os.Exit(2)
		}
	} else {
		losses = parseRates("loss", *lossList)
		if len(losses) == 0 {
			fmt.Fprintln(os.Stderr, "xlupc-chaos: no loss rates")
			os.Exit(2)
		}
	}

	stopProf := pf.MustStart("xlupc-chaos")
	defer stopProf()

	sc := bench.Scale{Threads: *threads, Nodes: *nodes}
	ok := true
	run := func(name string) {
		prof := transport.ByName(name)
		if prof == nil {
			fmt.Fprintf(os.Stderr, "xlupc-chaos: unknown profile %q\n", name)
			os.Exit(2)
		}
		if crashing {
			// CrashSweep itself panics on a rate whose checksum leaves
			// the crash-free run's.
			s.PrintCrash(os.Stdout, *mark, prof, sc, crashes, restart)
		} else {
			pts := s.PrintChaos(os.Stdout, *mark, prof, sc, losses)
			for _, pt := range pts[1:] {
				if pt.Checksum != pts[0].Checksum {
					fmt.Fprintf(os.Stderr, "xlupc-chaos: %s/%s: checksum diverged at loss %g: %x vs %x\n",
						*mark, name, pt.Loss, pt.Checksum, pts[0].Checksum)
					ok = false
				}
			}
		}
		fmt.Println()
	}
	if *profName == "both" {
		run("gm")
		run("lapi")
	} else {
		run(*profName)
	}
	if err := finishFlight(s); err != nil {
		fmt.Fprintf(os.Stderr, "xlupc-chaos: %v\n", err)
		ok = false
	}
	if !ok {
		stopProf()
		os.Exit(1)
	}
}
