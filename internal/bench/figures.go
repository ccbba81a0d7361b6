package bench

import (
	"fmt"
	"io"
	"math"

	"xlupc/internal/core"
	"xlupc/internal/dis"
	"xlupc/internal/sim"
	"xlupc/internal/stats"
	"xlupc/internal/transport"
)

// Fig6Sizes is the paper's Figure 6 message-size sweep: 1 B to 4 MB.
func Fig6Sizes() []int {
	return []int{1, 4, 16, 64, 256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20}
}

// Fig7Sizes is the small-message subset of Figure 7: 1 B to 8 KB.
func Fig7Sizes() []int {
	s := make([]int, 0, 14)
	for b := 1; b <= 8<<10; b *= 2 {
		s = append(s, b)
	}
	return s
}

// fmtImprov renders an improvement percentage w characters wide,
// printing "n/a" for the degenerate zero-baseline case (NaN).
func fmtImprov(w int, v float64) string {
	if math.IsNaN(v) {
		return fmt.Sprintf("%*s", w, "n/a")
	}
	return fmt.Sprintf("%*.1f", w, v)
}

// LatencyPoint is one (size, with/without cache) measurement.
type LatencyPoint struct {
	Size        int
	WithoutUs   float64 // mean latency without the cache, µs
	WithUs      float64 // mean latency with the cache, µs
	Improvement float64 // 100*(Z-W)/Z
}

// MicroSweep measures a size sweep for op on prof. Points run across
// the sweep's workers in deterministic output order.
func (s Sweep) MicroSweep(op Op, prof *transport.Profile, sizes []int, reps int) []LatencyPoint {
	pts := make([]LatencyPoint, len(sizes))
	s.parfor(len(sizes), func(i int) {
		o := MicroOpts{Prof: prof, Size: sizes[i], Reps: reps, ForcePutCache: op == OpPut}
		zs := s.MicroLatency(op, false, o)
		ws := s.MicroLatency(op, true, o)
		z, w := zs.Mean(), ws.Mean()
		pts[i] = LatencyPoint{
			Size: sizes[i], WithoutUs: z, WithUs: w, Improvement: stats.Improvement(z, w),
		}
	})
	return pts
}

// PrintFig6 emits the improvement-vs-size series for both transports
// (the two panels of Figure 6).
func (s Sweep) PrintFig6(w io.Writer, op Op, reps int) ([]LatencyPoint, []LatencyPoint) {
	gm := s.MicroSweep(op, transport.GM(), Fig6Sizes(), reps)
	lapi := s.MicroSweep(op, transport.LAPI(), Fig6Sizes(), reps)
	fmt.Fprintf(w, "# Figure 6 — xlupc_distr_%s latency improvement using the cache of SVD addresses\n", op)
	fmt.Fprintf(w, "%12s %12s %12s\n", "size(B)", "GM(%)", "LAPI(%)")
	for i := range gm {
		fmt.Fprintf(w, "%12d %s %s\n", gm[i].Size, fmtImprov(12, gm[i].Improvement), fmtImprov(12, lapi[i].Improvement))
	}
	return gm, lapi
}

// PrintFig7 emits absolute small-message GET latencies with and
// without the cache for both transports (Figure 7).
func (s Sweep) PrintFig7(w io.Writer, reps int) (gm, lapi []LatencyPoint) {
	gm = s.MicroSweep(OpGet, transport.GM(), Fig7Sizes(), reps)
	lapi = s.MicroSweep(OpGet, transport.LAPI(), Fig7Sizes(), reps)
	fmt.Fprintf(w, "# Figure 7 — GET latency with and without the address cache (us)\n")
	fmt.Fprintf(w, "%10s %14s %14s %14s %14s\n", "size(B)", "GM w/o", "GM w/", "LAPI w/o", "LAPI w/")
	for i := range gm {
		fmt.Fprintf(w, "%10d %14.2f %14.2f %14.2f %14.2f\n",
			gm[i].Size, gm[i].WithoutUs, gm[i].WithUs, lapi[i].WithoutUs, lapi[i].WithUs)
	}
	return gm, lapi
}

// Scale is one (threads, nodes) point of the stressmark sweeps.
type Scale struct{ Threads, Nodes int }

func (s Scale) String() string { return fmt.Sprintf("%d-%d", s.Threads, s.Nodes) }

// GMScales mirrors Figure 8/9a's x-axis (hybrid, 4 threads per node):
// 8-2 up to maxThreads (2048-512 in the paper).
func GMScales(maxThreads int) []Scale {
	var out []Scale
	for t := 8; t <= maxThreads; t *= 2 {
		out = append(out, Scale{Threads: t, Nodes: t / 4})
	}
	return out
}

// LAPIScales mirrors Figure 9b's x-axis on the 28-node Power5 cluster.
func LAPIScales(maxThreads int) []Scale {
	all := []Scale{{4, 2}, {8, 2}, {16, 2}, {32, 2}, {64, 4}, {128, 8}, {256, 16}, {448, 28}}
	var out []Scale
	for _, s := range all {
		if s.Threads <= maxThreads {
			out = append(out, s)
		}
	}
	return out
}

// runMark builds a runtime from cfg and runs stressmark mark on every
// thread, returning the run stats, the combined self-verification
// checksum, and the runtime (for flight-recorder post-mortems).
func runMark(mark string, cfg core.Config, p dis.Params) (core.RunStats, uint64, *core.Runtime) {
	fn, err := dis.ByName(mark)
	if err != nil {
		panic(err) // an invariant: every command resolves its -mark before it gets here
	}
	rt, err := core.NewRuntime(cfg)
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	st, check, err := dis.Run(rt, fn, p)
	if err != nil {
		// Run already auto-dumped the flight tail when a dump sink is
		// configured; the panic carries the typed cause.
		panic(fmt.Sprintf("bench: %s run failed: %v", mark, err))
	}
	return st, check, rt
}

// HitRatePoint is one Figure 8 measurement.
type HitRatePoint struct {
	Scale    Scale
	Capacity int
	HitRate  float64
}

// Fig8 measures address-cache hit rates for a stressmark across scales
// and cache capacities (4, 10, 100 in the paper).
func (s Sweep) Fig8(mark string, scales []Scale, capacities []int) []HitRatePoint {
	out := make([]HitRatePoint, len(capacities)*len(scales))
	pts := make([]runPoint, len(out))
	for i := range out {
		out[i] = HitRatePoint{Scale: scales[i%len(scales)], Capacity: capacities[i/len(scales)]}
		pts[i] = s.point(mark, transport.GM(), out[i].Scale, core.CacheConfig{Enabled: true, Capacity: out[i].Capacity})
	}
	for i, r := range s.run(pts) {
		out[i].HitRate = r.st.Cache.HitRate()
	}
	return out
}

// PrintFig8 emits one Figure 8 panel.
func (s Sweep) PrintFig8(w io.Writer, mark string, scales []Scale, capacities []int) []HitRatePoint {
	pts := s.Fig8(mark, scales, capacities)
	fmt.Fprintf(w, "# Figure 8 — %s: cache hit rate by cache size\n", mark)
	fmt.Fprintf(w, "%14s", "threads-nodes")
	for _, c := range capacities {
		label := "unbounded" // core.CacheConfig.Capacity: the full-table ablation
		if c >= 0 {
			label = fmt.Sprintf("%d entries", c)
		}
		fmt.Fprintf(w, " %10s", label)
	}
	fmt.Fprintln(w)
	for i, sc := range scales {
		fmt.Fprintf(w, "%14s", sc)
		for j := range capacities {
			fmt.Fprintf(w, " %10.2f", pts[j*len(scales)+i].HitRate)
		}
		fmt.Fprintln(w)
	}
	return pts
}

// Fig9Point is one stressmark improvement measurement.
type Fig9Point struct {
	Scale       Scale
	Mark        string
	Improvement float64
}

// Fig9 measures the execution-time improvement of the address cache
// for every stressmark across scales on one transport.
func (s Sweep) Fig9(prof *transport.Profile, scales []Scale) []Fig9Point {
	suite := dis.Suite()
	out := make([]Fig9Point, len(suite)*len(scales))
	pts := make([]runPoint, 0, 2*len(out))
	for i := range out {
		out[i] = Fig9Point{Scale: scales[i%len(scales)], Mark: suite[i/len(scales)].Name}
		pts = append(pts,
			s.point(out[i].Mark, prof, out[i].Scale, core.NoCache()),
			s.point(out[i].Mark, prof, out[i].Scale, core.DefaultCache()))
	}
	res := s.run(pts)
	for i := range out {
		z, w := res[2*i].st, res[2*i+1].st
		out[i].Improvement = stats.Improvement(z.Elapsed.Usecs(), w.Elapsed.Usecs())
	}
	return out
}

// PrintFig9 emits one Figure 9 panel.
func (s Sweep) PrintFig9(w io.Writer, prof *transport.Profile, scales []Scale) []Fig9Point {
	pts := s.Fig9(prof, scales)
	fmt.Fprintf(w, "# Figure 9 — DIS address cache evaluation, hybrid %s (%% improvement)\n", prof.Name)
	fmt.Fprintf(w, "%14s", "threads-nodes")
	marks := dis.Suite()
	for _, m := range marks {
		fmt.Fprintf(w, " %13s", m.Name)
	}
	fmt.Fprintln(w)
	for i, sc := range scales {
		fmt.Fprintf(w, "%14s", sc)
		for j := range marks {
			fmt.Fprintf(w, " %s", fmtImprov(13, pts[j*len(scales)+i].Improvement))
		}
		fmt.Fprintln(w)
	}
	return pts
}

// Fig9CI applies the paper's methodology (§4: "We defined a confidence
// coefficient of 95% and ran each experiment multiple times") to one
// stressmark/scale point: the improvement is measured over reps
// independent seeds and returned as a sample, from which the caller
// reads the mean and the 95% confidence half-width.
func (s Sweep) Fig9CI(mark string, prof *transport.Profile, sc Scale, reps int) stats.Sample {
	pts := make([]runPoint, 0, 2*reps)
	for r := 0; r < reps; r++ {
		rs := s.Seed + int64(r)*7919
		for _, cc := range []core.CacheConfig{core.NoCache(), core.DefaultCache()} {
			pt := Sweep{Seed: rs}.point(mark, prof, sc, cc)
			pt.p.Salt = uint64(rs)
			pts = append(pts, pt)
		}
	}
	res := s.run(pts)
	var smp stats.Sample
	for r := 0; r < reps; r++ { // replication order, independent of worker scheduling
		z, w := res[2*r].st, res[2*r+1].st
		smp.Add(stats.Improvement(z.Elapsed.Usecs(), w.Elapsed.Usecs()))
	}
	return smp
}

// PrintFig9CI emits one Figure 9 panel with mean ± 95% CI columns.
func (s Sweep) PrintFig9CI(w io.Writer, prof *transport.Profile, scales []Scale, reps int) {
	fmt.Fprintf(w, "# Figure 9 — DIS address cache evaluation, hybrid %s (mean %% improvement ± 95%% CI over %d runs)\n",
		prof.Name, reps)
	marks := dis.Suite()
	fmt.Fprintf(w, "%14s", "threads-nodes")
	for _, m := range marks {
		fmt.Fprintf(w, " %18s", m.Name)
	}
	fmt.Fprintln(w)
	for _, sc := range scales {
		fmt.Fprintf(w, "%14s", sc)
		for _, m := range marks {
			smp := s.Fig9CI(m.Name, prof, sc, reps)
			fmt.Fprintf(w, " %11.1f ± %4.1f", smp.Mean(), smp.CI95())
		}
		fmt.Fprintln(w)
	}
}

// MissOverhead quantifies the §6 claim: the overhead of unsuccessful
// attempts to cache remote addresses is small (typically 1.5%, never
// worse than 2%). It compares a capacity-0 cache — every lookup
// misses, every reply piggybacks an address that is then dropped —
// against the cache machinery disabled outright, on a random-access
// workload.
func (s Sweep) MissOverhead(prof *transport.Profile) (pct float64) {
	run := func(cc core.CacheConfig) sim.Time {
		rt, err := core.NewRuntime(core.Config{
			Threads: 8, Nodes: 4, Profile: prof, Cache: cc, Seed: s.Seed,
		})
		if err != nil {
			panic(err)
		}
		st, err := rt.Run(func(t *core.Thread) {
			a := t.AllAlloc("mo", 1024, 8, 128)
			t.Barrier()
			for i := 0; i < 600; i++ {
				t.GetUint64(a.At(int64(t.Rand().Intn(1024))))
			}
			t.Barrier()
		})
		if err != nil {
			panic(err)
		}
		return st.Elapsed
	}
	configs := []core.CacheConfig{core.NoCache(), {Enabled: true, Capacity: 0}}
	times := make([]sim.Time, len(configs))
	s.parfor(len(configs), func(i int) { times[i] = run(configs[i]) })
	off, allMiss := times[0], times[1]
	return 100 * (float64(allMiss) - float64(off)) / float64(off)
}

// PrintMissOverhead emits the §6 miss overhead on both transports.
func (s Sweep) PrintMissOverhead(w io.Writer) {
	for _, prof := range []*transport.Profile{transport.GM(), transport.LAPI()} {
		fmt.Fprintf(w, "%8s %6.2f%%\n", prof.Name, s.MissOverhead(prof))
	}
}

// PinUsage reports the peak pinned-table occupancy across nodes for
// every stressmark (§4.5: ~10 entries suffice).
func (s Sweep) PinUsage(prof *transport.Profile, sc Scale) map[string]int {
	suite := dis.Suite()
	pts := make([]runPoint, len(suite))
	for i, m := range suite {
		pts[i] = s.point(m.Name, prof, sc, core.DefaultCache())
	}
	out := make(map[string]int, len(suite))
	for i, r := range s.run(pts) {
		out[suite[i].Name] = r.st.MaxLive
	}
	return out
}
