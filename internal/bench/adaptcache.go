// Adaptive address-cache figure: a hot-peer workload with periodic
// cold-peer pollution bursts. A fixed global-LRU cache lets each burst
// flush the hot peer's translations; the adaptive cache apportions the
// same global entry budget into per-peer shares from observed hit
// rates, so pollution only churns the cold peers' floor shares and the
// hot set stays resident. Both variants compute the same checksum —
// sizing policy may only change hit rates, never values.
package bench

import (
	"fmt"
	"io"

	"xlupc/internal/addrcache"
	"xlupc/internal/core"
	"xlupc/internal/dis"
	"xlupc/internal/transport"
)

// adaptHot is how many arrays form the hot working set against the
// fixed hot peer; adaptBurst is the pollution burst width (distinct
// cold keys per burst). Burst width equals the budget in the default
// configuration, which is exactly what defeats a global LRU.
const (
	adaptHot   = 4
	adaptBurst = 6
)

// AdaptOpts shapes the adaptive address-cache workload.
type AdaptOpts struct {
	Scale Scale
	// Arrays allocated (>= adaptHot + adaptBurst: the hot set plus the
	// pollution pool).
	Arrays int
	// BlockElems is the per-thread block size in 8-byte elements.
	BlockElems int
	// Iters is the per-thread access count; every eighth access is a
	// burst of adaptBurst cold-peer reads.
	Iters int
	// Budget is the per-node cache entry budget, identical for the
	// fixed and adaptive variants.
	Budget int
	// Window is the adaptive re-apportionment window in lookups.
	Window int
	Seed   int64
}

// DefaultAdapt returns the figure's published configuration.
func DefaultAdapt() AdaptOpts {
	return AdaptOpts{
		Scale:      Scale{Threads: 8, Nodes: 4},
		Arrays:     10,
		BlockElems: 4,
		Iters:      64,
		Budget:     6,
		Window:     32,
		Seed:       11,
	}
}

// adaptTarget resolves step (i, j) of thread tid's access stream to an
// (array, owner node) pair: hot-peer reads over the adaptHot-array hot
// set, with every eighth step a burst of adaptBurst reads rotating over
// the cold peers and the pollution arrays.
func adaptTarget(tid, i, j, nodes, tpn int) (ai, node int) {
	self := tid / tpn
	if j >= 0 {
		return adaptHot + j, (self + 2 + (i/8+j)%(nodes-2)) % nodes
	}
	return i % adaptHot, (self + 1) % nodes
}

// adaptBody reads remote translations in the hot/pollution pattern and
// checksums the values it fetched.
func adaptBody(t *core.Thread, o AdaptOpts) uint64 {
	nT := t.Threads()
	tpn := t.ThreadsPerNode()
	elems := int64(o.BlockElems) * int64(nT)
	arrays := make([]*core.SharedArray, o.Arrays)
	for ai := range arrays {
		arrays[ai] = t.AllAlloc(fmt.Sprintf("adapt-%d", ai), elems, 8, int64(o.BlockElems))
	}
	for ai := range arrays {
		t.PutUint64(arrays[ai].At(int64(t.ID())*int64(o.BlockElems)), pressMix(0, ai, t.ID(), 0))
	}
	t.Barrier()
	acc := pressMix(1, 0, t.ID(), 0) // per-thread salt: node-mates read identical streams
	read := func(i, j int) {
		ai, node := adaptTarget(t.ID(), i, j, nT/tpn, tpn)
		owner := node * tpn
		v := t.GetUint64(arrays[ai].At(int64(owner) * int64(o.BlockElems)))
		acc ^= v + uint64(i)*0x9E3779B97F4A7C15
	}
	for i := 0; i < o.Iters; i++ {
		if i%8 == 7 {
			for j := 0; j < adaptBurst; j++ {
				read(i, j)
			}
		} else {
			read(i, -1)
		}
	}
	t.Barrier()
	return acc
}

// AdaptPoint is one cache-sizing variant's measurement.
type AdaptPoint struct {
	Variant  string // "fixed" or "adaptive"
	Checksum uint64
	Run      core.RunStats
}

// runAdapt runs the workload under one cache-sizing variant.
func runAdapt(prof *transport.Profile, o AdaptOpts, adaptive bool) AdaptPoint {
	cache := adaptCacheConfig(o, adaptive)
	cfg := core.Config{
		Threads: o.Scale.Threads, Nodes: o.Scale.Nodes, Profile: prof,
		Cache: cache, Seed: o.Seed,
	}
	rt, err := core.NewRuntime(cfg)
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	checks := make([]uint64, cfg.Threads)
	st, err := rt.Run(func(t *core.Thread) { checks[t.ID()] = adaptBody(t, o) })
	if err != nil {
		panic(fmt.Sprintf("bench: adapt run failed: %v", err))
	}
	name := "fixed"
	if adaptive {
		name = "adaptive"
	}
	return AdaptPoint{Variant: name, Checksum: dis.Checksum(checks), Run: st}
}

// adaptCacheConfig builds the cache configuration for one sizing
// variant at the shared entry budget.
func adaptCacheConfig(o AdaptOpts, adaptive bool) core.CacheConfig {
	if adaptive {
		return core.CacheConfig{Enabled: true, Adaptive: &addrcache.AdaptiveConfig{
			Budget: o.Budget, Window: o.Window,
		}}
	}
	return core.CacheConfig{Enabled: true, Capacity: o.Budget, Policy: addrcache.LRU}
}

// AdaptSweep runs fixed and adaptive sizing at the identical budget and
// verifies both computed the same checksum.
func AdaptSweep(prof *transport.Profile, o AdaptOpts) (fixed, adaptive AdaptPoint) {
	pts := make([]AdaptPoint, 2)
	parfor(2, func(i int) { pts[i] = runAdapt(prof, o, i == 1) })
	if pts[0].Checksum != pts[1].Checksum {
		panic(fmt.Sprintf("bench: adaptive cache changed program output: fixed=%#x adaptive=%#x",
			pts[0].Checksum, pts[1].Checksum))
	}
	return pts[0], pts[1]
}

// PrintAdaptCache emits the adaptive address-cache figure with a
// machine-readable "# gate" line for CI.
func PrintAdaptCache(w io.Writer, prof *transport.Profile, o AdaptOpts) (fixed, adaptive AdaptPoint) {
	fixed, adaptive = AdaptSweep(prof, o)
	fmt.Fprintf(w, "# Adaptive address-cache sizing on %s (%d threads / %d nodes, budget %d entries/node, window %d, hot %d keys, burst %d)\n",
		prof.Name, o.Scale.Threads, o.Scale.Nodes, o.Budget, o.Window, adaptHot, adaptBurst)
	fmt.Fprintf(w, "%9s %12s %8s %8s %8s %8s %9s\n",
		"variant", "elapsed(us)", "hits", "misses", "evict", "resizes", "hit-rate")
	for _, p := range []AdaptPoint{fixed, adaptive} {
		c := p.Run.Cache
		fmt.Fprintf(w, "%9s %12.1f %8d %8d %8d %8d %9.3f\n",
			p.Variant, p.Run.Elapsed.Usecs(), c.Hits, c.Misses, c.Evictions, c.Resizes, c.HitRate())
	}
	fmt.Fprintf(w, "# gate adaptive-hit=%.3f fixed-hit=%.3f checksum=%#x\n",
		adaptive.Run.Cache.HitRate(), fixed.Run.Cache.HitRate(), fixed.Checksum)
	return fixed, adaptive
}
