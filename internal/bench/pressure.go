// Memory-pressure figure: an alloc/free churn storm that drives the
// pinned address table far past its budget and compares the graceful-
// degradation ladder — greedy pin-all (degrades to the AM path), LRU
// limited pinning (thrashes on cyclic scans), CLOCK and cost-aware
// evictors, and the lazy-unpin registration cache whose parked
// registrations turn next-round re-pins into free reuse hits. Every
// variant computes the same value checksum, so the figure doubles as a
// correctness gate: policies may only change *when* work happens,
// never *what* the program computes.
package bench

import (
	"fmt"
	"io"
	"strings"

	"xlupc/internal/core"
	"xlupc/internal/dis"
	"xlupc/internal/mem"
	"xlupc/internal/sim"
	"xlupc/internal/stats"
	"xlupc/internal/transport"
)

// The churn storm's sizes.
const (
	// pressW is how many elements of its block each thread seeds per
	// array per round; scans only read seeded slots, so checksums are
	// value-complete whatever the pin policy does.
	pressW = 4
	// pressArrays are allocated per round; their per-node pinned chunks
	// are the working set the pin budget is measured against.
	pressArrays = 6
	// pressBlockElems is the per-thread block size in 8-byte elements.
	pressBlockElems = 8
	// pressScans per round: cyclic reads over all arrays, mostly against
	// a fixed hot neighbour with a periodic rotating cold sweep — the
	// LRU-adversarial pattern.
	pressScans = 8
)

// PressureOpts shapes the churn-storm workload.
type PressureOpts struct {
	Scale Scale
	// Rounds of allocate → seed → scan → free. Across rounds the
	// first-fit allocator hands freed bases back out, which is what a
	// lazy-unpin dead-list converts into free re-pins.
	Rounds int
	// Fracs are the pin budgets swept, as fractions of the per-node
	// pinned working set (pressArrays × per-node chunk bytes).
	Fracs []float64
	// Variants optionally restricts the policy ladder (nil = the full
	// PressureVariants ladder).
	Variants []string
}

// variants resolves the effective policy ladder.
func (o PressureOpts) variants() []string {
	if len(o.Variants) > 0 {
		return o.Variants
	}
	return PressureVariants()
}

// DefaultPressure returns the figure's published configuration.
func DefaultPressure() PressureOpts {
	return PressureOpts{
		Scale:  Scale{Threads: 8, Nodes: 4},
		Rounds: 4,
		Fracs:  []float64{0.34, 0.67, 1.0},
	}
}

// PressureVariants is the policy ladder the figure sweeps, in print
// order. The pin-all baseline degrades to the AM path when the budget
// is exhausted; every other variant keeps RDMA alive by deregistering.
func PressureVariants() []string {
	return []string{"pin-all", "lru", "clock", "cost", "lru+lazy", "cost+lazy"}
}

// pressurePin builds the PinConfig for one ladder rung — a policy name
// ("pin-all" or an evictor name), optionally suffixed "+lazy" — under
// maxTotal budget bytes.
func pressurePin(variant string, maxTotal int) *core.PinConfig {
	pc := &core.PinConfig{Policy: mem.PinLimited, MaxTotal: maxTotal}
	base, lazy := strings.CutSuffix(variant, "+lazy")
	pc.Lazy = lazy
	if base == "pin-all" {
		pc.Policy = mem.PinAll
		return pc
	}
	k, err := mem.ParseEvictor(base)
	if err != nil {
		panic(fmt.Sprintf("bench: unknown pressure variant %q", variant))
	}
	pc.Evictor = k
	return pc
}

// pressMix derives the value thread tid writes at slot w of array ai in
// round r — a pure function, so readers can be checked across variants.
func pressMix(r, ai, tid, w int) uint64 {
	return sim.SplitMix64(uint64(r)<<48 ^ uint64(ai)<<32 ^ uint64(tid)<<16 ^ uint64(w))
}

// pressureVictim picks the thread whose block scan s of round r reads:
// mostly the fixed next neighbour (a hot set the table should keep
// resident), on cold-sweep scans a rotating cold target (the pollution
// that defeats pure recency).
func pressureVictim(tid, s, r, threads int) int {
	if s%4 == 0 {
		return (tid + s + r) % threads
	}
	return (tid + 1) % threads
}

// pressureArray picks which array step k of scan s reads. Three of
// every four scans hammer the two hot arrays (0 and 1); every fourth
// scan — the first of the round, so greedy pinning fills its budget
// with the wrong chunks — sweeps the cold tail starting away from the
// hot set, the pattern that defeats pure recency: LRU lets the sweep
// evict the hot set, while CLOCK's reference bits and the cost-aware
// evictor's ghost-list protection keep it resident.
func pressureArray(s, k int) int {
	if s%4 == 0 {
		return 2 + (k+s/4)%(pressArrays-2)
	}
	return k % 2
}

// pressureBody is the churn storm: each round allocates the arrays,
// seeds the thread's own block, scans remote blocks cyclically, and
// frees everything — so the next round's allocations reuse the bases.
func pressureBody(t *core.Thread, o PressureOpts) uint64 {
	nT := t.Threads()
	elems := pressBlockElems * int64(nT)
	arrays := make([]*core.SharedArray, pressArrays)
	var acc uint64
	for r := 0; r < o.Rounds; r++ {
		for ai := range arrays {
			arrays[ai] = t.AllAlloc(fmt.Sprintf("press-%d-%d", r, ai), elems, 8, pressBlockElems)
		}
		base := int64(t.ID()) * pressBlockElems
		for ai := range arrays {
			for w := 0; w < pressW; w++ {
				t.PutUint64(arrays[ai].At(base+int64(w)), pressMix(r, ai, t.ID(), w))
			}
		}
		t.Barrier()
		for s := 0; s < pressScans; s++ {
			victim := pressureVictim(t.ID(), s, r, nT)
			vbase := int64(victim) * pressBlockElems
			for k := 0; k < pressArrays; k++ {
				ai := pressureArray(s, k)
				v := t.GetUint64(arrays[ai].At(vbase + int64(s%pressW)))
				acc ^= v + uint64(k)*0x9E3779B97F4A7C15
			}
		}
		t.Barrier()
		if t.ID() == 0 {
			for _, a := range arrays {
				t.Free(a)
			}
		}
		t.Barrier()
	}
	return acc
}

// PressurePoint is one (budget fraction, pin variant) measurement of
// the churn storm.
type PressurePoint struct {
	Frac        float64
	Variant     string
	Checksum    uint64
	Improvement float64       // % makespan improvement vs pin-all at this frac
	Run         core.RunStats // pin table counts (MaxLive: the fullest node's), NACKs
}

// pressureWorkingSet is the per-node pinned working set in bytes: every
// array contributes one local chunk of pressBlockElems×8 bytes per
// resident thread.
func pressureWorkingSet(o PressureOpts) int {
	return pressArrays * pressBlockElems * 8 * (o.Scale.Threads / o.Scale.Nodes)
}

// runPressurePoint runs the churn storm once under one pin variant.
func (s Sweep) runPressurePoint(prof *transport.Profile, o PressureOpts, variant string, frac float64) PressurePoint {
	chunk := pressBlockElems * 8 * (o.Scale.Threads / o.Scale.Nodes)
	mt := int(frac * float64(pressureWorkingSet(o)))
	if mt < chunk {
		mt = chunk // floor: at least one array's local chunk must fit
	}
	cfg := core.Config{
		Threads: o.Scale.Threads, Nodes: o.Scale.Nodes, Profile: prof,
		Cache: core.DefaultCache(), Seed: s.Seed,
		Pin: pressurePin(variant, mt),
	}
	rt, err := core.NewRuntime(cfg)
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	checks := make([]uint64, cfg.Threads)
	st, err := rt.Run(func(t *core.Thread) { checks[t.ID()] = pressureBody(t, o) })
	if err != nil {
		panic(fmt.Sprintf("bench: pressure run (%s, frac %.2f) failed: %v", variant, frac, err))
	}
	return PressurePoint{Frac: frac, Variant: variant, Checksum: dis.Checksum(checks), Run: st}
}

// PressureSweep runs the churn storm for every (frac, variant) pair and
// verifies the correctness contract: within one budget fraction, every
// pin policy must compute the identical value checksum. A divergence
// panics — a pin policy that changes program output is a protocol bug,
// not a performance trade-off. Points run across the sweep's workers in
// deterministic output order (variant-major within each frac).
func (s Sweep) PressureSweep(prof *transport.Profile, o PressureOpts) []PressurePoint {
	variants := o.variants()
	pts := make([]PressurePoint, len(o.Fracs)*len(variants))
	s.parfor(len(pts), func(i int) {
		f, v := o.Fracs[i/len(variants)], variants[i%len(variants)]
		pts[i] = s.runPressurePoint(prof, o, v, f)
	})
	for fi := range o.Fracs {
		row := pts[fi*len(variants) : (fi+1)*len(variants)]
		base := row[0]
		for j := range row {
			if row[j].Checksum != base.Checksum {
				panic(fmt.Sprintf(
					"bench: pressure checksum diverged at frac %.2f: %s=%#x vs %s=%#x — pin policy changed program output",
					base.Frac, base.Variant, base.Checksum, row[j].Variant, row[j].Checksum))
			}
			row[j].Improvement = stats.Improvement(base.Run.Elapsed.Usecs(), row[j].Run.Elapsed.Usecs())
		}
	}
	return pts
}

// PrintPressure emits the churn-storm figure: one block per budget
// fraction with the policy ladder's makespan, thrash and reuse columns,
// plus a machine-readable "# gate" line per fraction for CI.
func (s Sweep) PrintPressure(w io.Writer, prof *transport.Profile, o PressureOpts) []PressurePoint {
	pts := s.PressureSweep(prof, o)
	variants := o.variants()
	fmt.Fprintf(w, "# Memory pressure — alloc/free churn storm on %s (%d threads / %d nodes, %d rounds x %d arrays, budget as fraction of %d B working set)\n",
		prof.Name, o.Scale.Threads, o.Scale.Nodes, o.Rounds, pressArrays, pressureWorkingSet(o))
	fmt.Fprintf(w, "%5s %10s %12s %8s %7s %7s %7s %7s %7s %8s %6s %10s %9s\n",
		"frac", "variant", "elapsed(us)", "pins", "evict", "nacks", "reuse", "parked", "reclaim", "dereg(us)", "peak", "reuse-rate", "impr(%)")
	for fi, f := range o.Fracs {
		row := pts[fi*len(variants) : (fi+1)*len(variants)]
		var pinAll, lru, bestAdaptive *PressurePoint
		for j := range row {
			p := &row[j]
			st := p.Run
			rr := 0.0
			if st.Pins > 0 {
				rr = float64(st.Reuses) / float64(st.Pins)
			}
			fmt.Fprintf(w, "%5.2f %10s %12.1f %8d %7d %7d %7d %7d %7d %8.1f %6d %10.2f %s\n",
				f, p.Variant, st.Elapsed.Usecs(), st.Pins, st.Evicted, st.RDMANacks,
				st.Reuses, st.Parked, st.Reclaims, st.DeregTime.Usecs(), st.MaxLive, rr, fmtImprov(9, p.Improvement))
			switch p.Variant {
			case "pin-all":
				pinAll = p
			case "lru":
				lru = p
			default:
				if bestAdaptive == nil || p.Run.Elapsed < bestAdaptive.Run.Elapsed {
					bestAdaptive = p
				}
			}
		}
		if pinAll != nil && lru != nil && bestAdaptive != nil {
			fmt.Fprintf(w, "# gate frac=%.2f pin-all=%.1f lru=%.1f best-adaptive=%.1f best=%s checksum=%#x\n",
				f, pinAll.Run.Elapsed.Usecs(), lru.Run.Elapsed.Usecs(), bestAdaptive.Run.Elapsed.Usecs(), bestAdaptive.Variant, row[0].Checksum)
		}
	}
	fmt.Fprintf(w, "# checksums identical across all pin policies\n")
	return pts
}
