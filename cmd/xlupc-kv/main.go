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
	"xlupc/internal/kv"
	hostprof "xlupc/internal/prof"
	"xlupc/internal/sim"
	"xlupc/internal/transport"
)

// kvFlags are the command's flag values.
type kvFlags struct {
	profile                string
	threads, nodes         int
	ops, keys              int64
	thetas, readmix        string
	rate, sloUs, restartUs float64
	losses, crashes        string
	seed                   int64
	parallel               int
}

// plan is what the flags resolve to: the transports, the machine, the
// workload every point shares, and the values each sweep runs over.
type plan struct {
	profs                          []*transport.Profile
	sc                             bench.Scale
	base                           bench.KVOpts
	thetas, mixes, losses, crashes []float64
	restart                        sim.Time
}

// planFor checks every flag and resolves them into the runs to make, so
// that a bad value fails before any run starts.
func planFor(f kvFlags) (plan, error) {
	p := plan{sc: bench.Scale{Threads: f.threads, Nodes: f.nodes}}
	if err := bench.ValidateParallel(f.parallel); err != nil {
		return p, err
	}
	if err := bench.ValidateScale(f.threads, f.nodes); err != nil {
		return p, err
	}
	if err := bench.ValidatePositive("-ops", f.ops); err != nil {
		return p, err
	}
	if err := bench.ValidatePositive("-keys", f.keys); err != nil {
		return p, err
	}
	var err error
	if p.thetas, err = bench.ParseRates("-thetas", f.thetas); err != nil {
		return p, err
	}
	if len(p.thetas) == 0 {
		return p, fmt.Errorf("no skew values")
	}
	if p.mixes, err = bench.ParseFracs("-readmix", f.readmix); err != nil {
		return p, err
	}
	if len(p.mixes) == 0 {
		return p, fmt.Errorf("no read-mix values")
	}
	if math.IsNaN(f.rate) || math.IsInf(f.rate, 0) || f.rate < 0 {
		return p, fmt.Errorf("bad -rate %v (want finite, >= 0)", f.rate)
	}
	if math.IsNaN(f.sloUs) || math.IsInf(f.sloUs, 0) || f.sloUs <= 0 {
		return p, fmt.Errorf("bad -slo-us %v (want finite, > 0)", f.sloUs)
	}
	if math.IsNaN(f.restartUs) || math.IsInf(f.restartUs, 0) || f.restartUs <= 0 || f.restartUs > 1e6 {
		return p, fmt.Errorf("bad -restart-delay %v (want 0 < µs <= 1e6)", f.restartUs)
	}
	if p.losses, err = bench.ParseRates("-losses", f.losses); err != nil {
		return p, err
	}
	if p.crashes, err = bench.ParseRates("-crashes", f.crashes); err != nil {
		return p, err
	}
	p.restart = sim.Time(f.restartUs * float64(sim.Us))
	if f.profile == "both" {
		p.profs = []*transport.Profile{transport.GM(), transport.LAPI()}
	} else if prof := transport.ByName(f.profile); prof != nil {
		p.profs = []*transport.Profile{prof}
	} else {
		return p, fmt.Errorf("unknown profile %q", f.profile)
	}
	p.base = bench.KVOpts{Workload: kv.Workload{
		Ops: f.ops, NumKeys: f.keys, Rate: f.rate,
		SLO: sim.Duration(f.sloUs * float64(sim.Us)),
	}}
	return p, nil
}

func main() {
	var f kvFlags
	flag.StringVar(&f.profile, "profile", "both", "transport profile: gm, lapi or both")
	flag.IntVar(&f.threads, "threads", 8, "UPC threads (= KV shards)")
	flag.IntVar(&f.nodes, "nodes", 4, "cluster nodes")
	flag.Int64Var(&f.ops, "ops", 200, "operations per thread")
	flag.Int64Var(&f.keys, "keys", 4096, "key population")
	flag.StringVar(&f.thetas, "thetas", "0,0.9,0.99", "comma-separated Zipfian skews in [0,1) for the skew sweep; SLO curves use the last (most skewed)")
	flag.StringVar(&f.readmix, "readmix", "0.9", "comma-separated GET fractions in [0,1]; SLO curves use the first")
	flag.Float64Var(&f.rate, "rate", 150000, "offered rate per thread in ops/s (0 = closed loop)")
	flag.Float64Var(&f.sloUs, "slo-us", 200, "per-op latency SLO in µs for availability accounting")
	flag.StringVar(&f.losses, "losses", "0,0.01,0.05", "comma-separated packet-loss rates for the SLO curve (empty disables it)")
	flag.StringVar(&f.crashes, "crashes", "0,0.1", "comma-separated node crash rates for the SLO curve (empty disables it)")
	flag.Float64Var(&f.restartUs, "restart-delay", 150, "maximum node restart delay in µs for the crash curve")
	flag.Int64Var(&f.seed, "seed", 1, "simulation seed (drives keys, mixes and every injected fault)")
	parallel := bench.RegisterParallel(nil)
	pf := hostprof.Register(nil)
	flag.Parse()
	f.parallel = *parallel
	p, err := planFor(f)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xlupc-kv: %v\n", err)
		os.Exit(2)
	}
	s := bench.Sweep{Seed: f.seed, Workers: f.parallel}

	stopProf := pf.MustStart("xlupc-kv")
	defer stopProf()

	for _, prof := range p.profs {
		for _, mix := range p.mixes {
			o := p.base
			o.ReadFrac = mix
			s.PrintKVSkew(os.Stdout, prof, p.sc, p.thetas, o)
			fmt.Println()
		}
		// The SLO curves run at the sweep's most skewed point (the
		// cache-friendliest, so hazards — not misses — set the tail)
		// and its first read mix.
		o := p.base
		o.ReadFrac, o.Theta = p.mixes[0], p.thetas[len(p.thetas)-1]
		if len(p.losses) > 0 {
			pts := s.KVLossCurve(prof, p.sc, p.losses, o)
			bench.PrintKVSLO(os.Stdout, "loss", prof, p.sc, pts, o)
			fmt.Println()
		}
		if len(p.crashes) > 0 {
			pts := s.KVCrashCurve(prof, p.sc, p.crashes, p.restart, o)
			bench.PrintKVSLO(os.Stdout, "crash", prof, p.sc, pts, o)
			fmt.Println()
		}
	}
}
