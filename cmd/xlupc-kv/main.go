// Command xlupc-kv drives the sharded key-value dataplane built on
// the PGAS runtime: an open-loop scrambled-Zipfian workload whose
// GETs ride one-sided RDMA reads through the remote address cache
// (falling back to the lookup AM on misses and torn buckets) and
// whose PUTs/DELETEs ship as active messages to each key's home node.
//
// The default run emits, per transport, a Zipf-skew sweep comparing
// the cached one-sided read path against the AM-only baseline
// (throughput, p50/p95/p99 latency, per-object cache hit rate), then
// SLO curves: tail latency and availability against injected packet
// loss and against node crash/restart rates. All randomness derives
// from -seed; two invocations with the same flags produce
// byte-identical output.
//
// Usage:
//
//	xlupc-kv                                      # both transports, default sweeps
//	xlupc-kv -profile gm -thetas 0,0.5,0.9,0.99 -readmix 0.5,0.95
//	xlupc-kv -losses 0,0.02,0.05 -crashes 0,0.2 -restart-delay 200
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"xlupc/internal/bench"
	hostprof "xlupc/internal/prof"
	"xlupc/internal/sim"
	"xlupc/internal/transport"
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "xlupc-kv: "+format+"\n", args...)
	os.Exit(2)
}

func main() {
	profName := flag.String("profile", "both", "transport profile: gm, lapi or both")
	threads := flag.Int("threads", 8, "UPC threads (= KV shards)")
	nodes := flag.Int("nodes", 4, "cluster nodes")
	ops := flag.Int64("ops", 200, "operations per thread")
	keys := flag.Int64("keys", 4096, "key population")
	thetaList := flag.String("thetas", "0,0.9,0.99", "comma-separated Zipfian skews in [0,1) for the skew sweep; SLO curves use the last (most skewed)")
	mixList := flag.String("readmix", "0.9", "comma-separated GET fractions in [0,1]; SLO curves use the first")
	rate := flag.Float64("rate", 150000, "offered rate per thread in ops/s (0 = closed loop)")
	sloUs := flag.Float64("slo-us", 200, "per-op latency SLO in µs for availability accounting")
	lossList := flag.String("losses", "0,0.01,0.05", "comma-separated packet-loss rates for the SLO curve (empty disables it)")
	crashList := flag.String("crashes", "0,0.1", "comma-separated node crash rates for the SLO curve (empty disables it)")
	restartUs := flag.Float64("restart-delay", 150, "maximum node restart delay in µs for the crash curve")
	seed := flag.Int64("seed", 1, "simulation seed (drives keys, mixes and every injected fault)")
	parallel := flag.Int("parallel", 0, "sweep worker goroutines (0 = GOMAXPROCS, 1 = sequential); results are identical either way")
	pf := hostprof.Register(nil)
	flag.Parse()
	bench.SetParallelism(*parallel)

	if err := bench.ValidateScale(*threads, *nodes); err != nil {
		fatalf("%v", err)
	}
	if err := bench.ValidatePositive("-ops", *ops); err != nil {
		fatalf("%v", err)
	}
	if err := bench.ValidatePositive("-keys", *keys); err != nil {
		fatalf("%v", err)
	}
	thetas, err := bench.ParseRates("-thetas", *thetaList)
	if err != nil {
		fatalf("%v", err)
	}
	if len(thetas) == 0 {
		fatalf("no skew values")
	}
	mixes, err := bench.ParseFracs("-readmix", *mixList)
	if err != nil {
		fatalf("%v", err)
	}
	if len(mixes) == 0 {
		fatalf("no read-mix values")
	}
	if math.IsNaN(*rate) || math.IsInf(*rate, 0) || *rate < 0 {
		fatalf("bad -rate %v (want finite, >= 0)", *rate)
	}
	if math.IsNaN(*sloUs) || math.IsInf(*sloUs, 0) || *sloUs <= 0 {
		fatalf("bad -slo-us %v (want finite, > 0)", *sloUs)
	}
	if math.IsNaN(*restartUs) || math.IsInf(*restartUs, 0) || *restartUs <= 0 || *restartUs > 1e6 {
		fatalf("bad -restart-delay %v (want 0 < µs <= 1e6)", *restartUs)
	}
	losses, err := bench.ParseRates("-losses", *lossList)
	if err != nil {
		fatalf("%v", err)
	}
	crashes, err := bench.ParseRates("-crashes", *crashList)
	if err != nil {
		fatalf("%v", err)
	}
	restart := sim.Time(*restartUs * float64(sim.Us))

	var profs []*transport.Profile
	if *profName == "both" {
		profs = []*transport.Profile{transport.GM(), transport.LAPI()}
	} else {
		prof := transport.ByName(*profName)
		if prof == nil {
			fatalf("unknown profile %q", *profName)
		}
		profs = []*transport.Profile{prof}
	}

	stopProf := pf.MustStart("xlupc-kv")
	defer stopProf()

	sc := bench.Scale{Threads: *threads, Nodes: *nodes}
	base := bench.KVOpts{
		Ops: *ops, Keys: *keys, Rate: *rate,
		SLO: sim.Duration(*sloUs * float64(sim.Us)), Seed: *seed,
	}
	for _, prof := range profs {
		for _, mix := range mixes {
			o := base
			o.ReadFrac = mix
			bench.PrintKVSkew(os.Stdout, prof, sc, thetas, o)
			fmt.Println()
		}
		// The SLO curves run at the sweep's most skewed point (the
		// cache-friendliest, so hazards — not misses — set the tail)
		// and its first read mix.
		o := base
		o.ReadFrac, o.Theta = mixes[0], thetas[len(thetas)-1]
		if len(losses) > 0 {
			pts := bench.KVLossCurve(prof, sc, losses, o)
			bench.PrintKVSLO(os.Stdout, "loss", prof, sc, pts, o)
			fmt.Println()
		}
		if len(crashes) > 0 {
			pts := bench.KVCrashCurve(prof, sc, crashes, restart, o)
			bench.PrintKVSLO(os.Stdout, "crash", prof, sc, pts, o)
			fmt.Println()
		}
	}
}
