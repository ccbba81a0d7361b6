// Command xlupc-apps runs the application kernels (conjugate gradient
// and bucket integer sort) with the address cache off and on, printing
// verification status and the execution-time improvement — the
// "benefits of the address cache on applications as opposed to
// benchmarks" measurement the paper's future work calls for (§6).
//
// Usage:
//
//	xlupc-apps
//	xlupc-apps -profile lapi -threads 64 -nodes 4
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"xlupc/internal/apps"
	"xlupc/internal/bench"
	"xlupc/internal/core"
	hostprof "xlupc/internal/prof"
	"xlupc/internal/sim"
	"xlupc/internal/transport"
)

func run(kernel string, threads, nodes int, prof *transport.Profile, cc core.CacheConfig, seed int64) (sim.Time, string, bool) {
	rt, err := core.NewRuntime(core.Config{
		Threads: threads, Nodes: nodes, Profile: prof, Cache: cc, Seed: seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	var summary string
	var ok bool
	st, err := rt.Run(func(t *core.Thread) {
		switch kernel {
		case "cg":
			r := apps.CG(t)
			if t.ID() == 0 {
				summary, ok = r.String(), r.Verified
			}
		case "is":
			r := apps.IS(t)
			if t.ID() == 0 {
				summary, ok = fmt.Sprintf("%d keys", r.Total), r.Verified
			}
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	return st.Elapsed, summary, ok
}

// profileFor resolves -profile and checks -threads/-nodes, so that a bad
// value fails before any kernel runs.
func profileFor(name string, threads, nodes int) (*transport.Profile, error) {
	prof := transport.ByName(name)
	if prof == nil {
		return nil, fmt.Errorf("unknown profile %q", name)
	}
	return prof, bench.ValidateScale(threads, nodes)
}

func main() {
	profName := flag.String("profile", "gm", "transport profile: gm, lapi")
	threads := flag.Int("threads", 16, "UPC threads")
	nodes := flag.Int("nodes", 4, "cluster nodes")
	seed := flag.Int64("seed", 1, "simulation seed")
	pf := hostprof.Register(nil)
	flag.Parse()

	prof, err := profileFor(*profName, *threads, *nodes)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xlupc-apps: %v\n", err)
		os.Exit(2)
	}
	stopProf := pf.MustStart("xlupc-apps")
	defer stopProf()
	fmt.Printf("# application kernels, %d threads / %d nodes on %s\n", *threads, *nodes, prof.Name)
	for _, kernel := range []string{"cg", "is"} {
		z, _, zok := run(kernel, *threads, *nodes, prof, core.NoCache(), *seed)
		w, summary, wok := run(kernel, *threads, *nodes, prof, core.DefaultCache(), *seed)
		if !zok || !wok {
			log.Fatalf("%s failed verification", kernel)
		}
		fmt.Printf("%-4s %-34s without=%-12v with=%-12v improvement=%.1f%%\n",
			kernel, summary, z, w, 100*(float64(z)-float64(w))/float64(z))
	}
}
