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

// The figure's workload and cache sizes. adaptHot is how many arrays
// form the hot working set against the fixed hot peer; adaptBurst is the
// pollution burst width (distinct cold keys per burst). Burst width
// equals the budget, which is exactly what defeats a global LRU.
const (
	adaptHot   = 4
	adaptBurst = 6
	// adaptArrays are allocated: the hot set plus the pollution pool.
	adaptArrays = adaptHot + adaptBurst
	// adaptBlockElems is the per-thread block size in 8-byte elements.
	adaptBlockElems = 4
	// adaptIters is the per-thread access count; every eighth access is
	// a burst of adaptBurst cold-peer reads.
	adaptIters = 64
	// adaptBudget is the per-node cache entry budget, identical for the
	// fixed and adaptive variants.
	adaptBudget = 6
	// adaptWindow is the adaptive re-apportionment window in lookups.
	adaptWindow = 32
)

// AdaptScale is the machine of the figure's published configuration.
func AdaptScale() Scale { return Scale{Threads: 8, Nodes: 4} }

// ValidateAdapt checks the machine the figure needs: a valid hybrid
// scale with a hot peer and at least one cold peer besides the reader's
// own node, so at least three nodes.
func ValidateAdapt(sc Scale) error {
	if err := ValidateScale(sc.Threads, sc.Nodes); err != nil {
		return err
	}
	if sc.Nodes < 3 {
		return fmt.Errorf("-nodes (%d) must be at least 3: the adaptive figure reads a hot peer and cold peers besides its own node", sc.Nodes)
	}
	return nil
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
func adaptBody(t *core.Thread) uint64 {
	nT := t.Threads()
	tpn := t.ThreadsPerNode()
	elems := adaptBlockElems * int64(nT)
	arrays := make([]*core.SharedArray, adaptArrays)
	for ai := range arrays {
		arrays[ai] = t.AllAlloc(fmt.Sprintf("adapt-%d", ai), elems, 8, adaptBlockElems)
	}
	for ai := range arrays {
		t.PutUint64(arrays[ai].At(int64(t.ID())*adaptBlockElems), pressMix(0, ai, t.ID(), 0))
	}
	t.Barrier()
	acc := pressMix(1, 0, t.ID(), 0) // per-thread salt: node-mates read identical streams
	read := func(i, j int) {
		ai, node := adaptTarget(t.ID(), i, j, nT/tpn, tpn)
		owner := node * tpn
		v := t.GetUint64(arrays[ai].At(int64(owner) * adaptBlockElems))
		acc ^= v + uint64(i)*0x9E3779B97F4A7C15
	}
	for i := 0; i < adaptIters; i++ {
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

// runAdapt runs the workload on machine sc under one cache-sizing
// variant.
func (s Sweep) runAdapt(prof *transport.Profile, sc Scale, adaptive bool) AdaptPoint {
	cfg := core.Config{
		Threads: sc.Threads, Nodes: sc.Nodes, Profile: prof,
		Cache: adaptCacheConfig(adaptive), Seed: s.Seed,
	}
	rt, err := core.NewRuntime(cfg)
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	checks := make([]uint64, cfg.Threads)
	st, err := rt.Run(func(t *core.Thread) { checks[t.ID()] = adaptBody(t) })
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
func adaptCacheConfig(adaptive bool) core.CacheConfig {
	if adaptive {
		return core.CacheConfig{Enabled: true, Adaptive: &addrcache.AdaptiveConfig{
			Budget: adaptBudget, Window: adaptWindow,
		}}
	}
	return core.CacheConfig{Enabled: true, Capacity: adaptBudget}
}

// AdaptSweep runs fixed and adaptive sizing on machine sc at the
// identical budget and verifies both computed the same checksum. A
// machine that fails ValidateAdapt is an error, before anything runs.
func (s Sweep) AdaptSweep(prof *transport.Profile, sc Scale) (fixed, adaptive AdaptPoint, err error) {
	if err := ValidateAdapt(sc); err != nil {
		return fixed, adaptive, err
	}
	pts := make([]AdaptPoint, 2)
	s.parfor(2, func(i int) { pts[i] = s.runAdapt(prof, sc, i == 1) })
	if pts[0].Checksum != pts[1].Checksum {
		panic(fmt.Sprintf("bench: adaptive cache changed program output: fixed=%#x adaptive=%#x",
			pts[0].Checksum, pts[1].Checksum))
	}
	return pts[0], pts[1], nil
}

// PrintAdaptCache emits the adaptive address-cache figure with a
// "# gate" summary line. TestAdaptCacheGate asserts the gate on the
// typed points.
func (s Sweep) PrintAdaptCache(w io.Writer, prof *transport.Profile, sc Scale) error {
	fixed, adaptive, err := s.AdaptSweep(prof, sc)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# Adaptive address-cache sizing on %s (%d threads / %d nodes, budget %d entries/node, window %d, hot %d keys, burst %d)\n",
		prof.Name, sc.Threads, sc.Nodes, adaptBudget, adaptWindow, adaptHot, adaptBurst)
	fmt.Fprintf(w, "%9s %12s %8s %8s %8s %8s %9s\n",
		"variant", "elapsed(us)", "hits", "misses", "evict", "resizes", "hit-rate")
	for _, p := range []AdaptPoint{fixed, adaptive} {
		c := p.Run.Cache
		fmt.Fprintf(w, "%9s %12.1f %8d %8d %8d %8d %9.3f\n",
			p.Variant, p.Run.Elapsed.Usecs(), c.Hits, c.Misses, c.Evictions, c.Resizes, c.HitRate())
	}
	fmt.Fprintf(w, "# gate adaptive-hit=%.3f fixed-hit=%.3f checksum=%#x\n",
		adaptive.Run.Cache.HitRate(), fixed.Run.Cache.HitRate(), fixed.Checksum)
	return nil
}
