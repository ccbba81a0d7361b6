package bench

import (
	"fmt"
	"io"

	"xlupc/internal/core"
	"xlupc/internal/fault"
	"xlupc/internal/flight"
	"xlupc/internal/kv"
	"xlupc/internal/sim"
	"xlupc/internal/stats"
	"xlupc/internal/transport"
)

// KVOpts configures one key-value dataplane run: the workload every
// thread offers, and the machine and hazards it runs on.
type KVOpts struct {
	kv.Workload
	Scale Scale
	Prof  *transport.Profile
	// Cached selects the dataplane: true reads through the address
	// cache over one-sided RDMA (the Storm read protocol); false turns
	// the cache off and forces every remote read through the lookup AM
	// (the baseline the paper's cache is measured against).
	Cached bool
	Fault  *fault.Config     // optional wire hazards (reliable delivery on)
	Crash  *core.CrashConfig // optional crash/restart schedule
}

// KVResult is one run's outcome: the merged generator result, the
// aggregated table counters, and the run-level figures derived from
// them.
type KVResult struct {
	Merged   kv.ThreadResult
	Table    kv.Stats
	Run      core.RunStats
	OpsPerMs float64 // completed ops per virtual millisecond, all threads
	HitRate  float64 // address-cache hit rate; the kv object is all a KV run looks up
}

// RunKV runs the sharded KV dataplane under the given options and
// returns the merged result. Same options, same figures — bit for bit —
// whatever the host parallelism.
func (s Sweep) RunKV(o KVOpts) KVResult {
	res, _ := s.runKV(o)
	return res
}

// runKV is RunKV that also hands back the runtime, for tests that look
// at the simulator underneath the figures.
func (s Sweep) runKV(o KVOpts) (KVResult, *core.Runtime) {
	w := o.Workload
	if err := w.Validate(); err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	cc := core.NoCache()
	if o.Cached {
		cc = core.DefaultCache()
	}
	cfg := core.Config{
		Threads: o.Scale.Threads, Nodes: o.Scale.Nodes, Profile: o.Prof, Cache: cc,
		Seed: s.Seed, Fault: o.Fault, Crash: o.Crash,
	}
	if o.Crash != nil {
		rc := transport.DefaultRelConfig()
		cfg.Rel = &rc
	}
	rt, err := core.NewRuntime(cfg)
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	ko := kv.Options{Name: "kv", NumKeys: w.NumKeys, ReadViaAM: !o.Cached}
	results := make([]kv.ThreadResult, cfg.Threads)
	tables := make([]kv.Stats, cfg.Threads)
	z, err := kv.NewZipf(w.NumKeys, w.Theta)
	if err != nil {
		// Unreachable after w.Validate(), which covers the same ranges.
		panic(fmt.Sprintf("bench: %v", err))
	}
	// The load generator exists in continuation form only (the
	// benchmark's kv_mixed workload pins it), so the run has no
	// coroutine per thread.
	st, err := rt.RunCont(func(t *core.Thread, done func()) {
		kv.NewC(t, ko, func(tb *kv.Table) {
			kv.PreloadC(t, tb, w.NumKeys, func(int64) {
				kv.RunLoadC(t, tb, w, z, func(r kv.ThreadResult) {
					results[t.ID()] = r
					tables[t.ID()] = tb.Stats
					done()
				})
			})
		})
	})
	if err != nil {
		panic(fmt.Sprintf("bench: kv run failed: %v", err))
	}
	res := KVResult{Merged: kv.Merge(results), Run: st}
	for _, ts := range tables {
		res.Table.Add(ts)
	}
	if us := st.Elapsed.Usecs(); us > 0 {
		res.OpsPerMs = float64(res.Merged.Ops) / (us / 1000)
	}
	// The kv object is the only thing a KV run looks up, so the run's
	// cache counters are that object's.
	res.HitRate = st.Cache.HitRate()
	return res, rt
}

// KVSkewPoint is one Zipf-skew measurement: the cached one-sided
// dataplane against the AM-only baseline at identical load.
type KVSkewPoint struct {
	Theta       float64
	Cached      KVResult
	AMOnly      KVResult
	Improvement float64 // mean-latency improvement of the cached path, %
}

// KVSkewSweep measures the skew × transport experiment: at each theta,
// the same offered load once through the cached one-sided read path
// and once AM-only with the cache off. Points run across the sweep's
// workers in deterministic output order.
func (s Sweep) KVSkewSweep(prof *transport.Profile, sc Scale, thetas []float64, o KVOpts) []KVSkewPoint {
	pts := make([]KVSkewPoint, len(thetas))
	s.parfor(len(thetas), func(i int) {
		p := o
		p.Prof, p.Scale, p.Theta = prof, sc, thetas[i]
		p.Cached = true
		cached := s.RunKV(p)
		p.Cached = false
		am := s.RunKV(p)
		zMean := float64(am.Merged.LatSum) / float64(am.Merged.Ops)
		wMean := float64(cached.Merged.LatSum) / float64(cached.Merged.Ops)
		pts[i] = KVSkewPoint{
			Theta: thetas[i], Cached: cached, AMOnly: am,
			Improvement: stats.Improvement(zMean, wMean),
		}
	})
	return pts
}

// PrintKVSkew emits one skew-sweep table and returns its points.
func (s Sweep) PrintKVSkew(w io.Writer, prof *transport.Profile, sc Scale, thetas []float64, o KVOpts) []KVSkewPoint {
	pts := s.KVSkewSweep(prof, sc, thetas, o)
	fmt.Fprintf(w, "# KV — %s, %s: %d keys, %d ops/thread, read mix %.2f, rate %.0f/s (cached one-sided vs AM-only)\n",
		prof.Name, sc, o.NumKeys, o.Ops, o.ReadFrac, o.Rate)
	fmt.Fprintf(w, "%6s %9s %9s %8s %8s %8s %8s %10s %6s %17s\n",
		"theta", "hit-rate", "kops/ms", "p50(us)", "p95(us)", "p99(us)",
		"am-p99", "improv(%)", "torn", "checksum")
	for _, pt := range pts {
		fmt.Fprintf(w, "%6.2f %9.2f %9.2f %8.2f %8.2f %8.2f %8.2f %s %6d %17x\n",
			pt.Theta, pt.Cached.HitRate, pt.Cached.OpsPerMs,
			pt.Cached.Merged.Quantile(0.50).Usecs(),
			pt.Cached.Merged.Quantile(0.95).Usecs(),
			pt.Cached.Merged.Quantile(0.99).Usecs(),
			pt.AMOnly.Merged.Quantile(0.99).Usecs(),
			fmtImprov(10, pt.Improvement), pt.Cached.Table.TornRetries, pt.Cached.Merged.Checksum)
	}
	return pts
}

// KVSLOPoint is one hazard-rate measurement of the chaos-under-load
// SLO curve: tail latency and availability at a given packet-loss or
// crash rate.
type KVSLOPoint struct {
	Rate         float64 // loss rate or crash rate, per the sweep
	Result       KVResult
	P99Us        float64
	Availability float64 // fraction of ops inside the SLO
}

// KVLossCurve measures tail latency and availability against packet
// loss: the cached dataplane at each loss rate over the reliable
// layer. Every run must complete every op — crash-free loss never
// loses data, only time — so Ops is asserted, not reported.
func (s Sweep) KVLossCurve(prof *transport.Profile, sc Scale, losses []float64, o KVOpts) []KVSLOPoint {
	pts := make([]KVSLOPoint, len(losses))
	s.parfor(len(losses), func(i int) {
		p := o
		p.Prof, p.Scale, p.Cached = prof, sc, true
		fc := ChaosFaults(losses[i])
		p.Fault = &fc
		r := s.RunKV(p)
		if want := int64(sc.Threads) * o.Ops; r.Merged.Ops != want {
			panic(fmt.Sprintf("bench: kv at loss %g completed %d/%d ops", losses[i], r.Merged.Ops, want))
		}
		pts[i] = KVSLOPoint{Rate: losses[i], Result: r,
			P99Us: r.Merged.Quantile(0.99).Usecs(), Availability: r.Merged.Availability()}
	})
	return pts
}

// KVCrashCurve is KVLossCurve against node crash/restart rates:
// epoch-guarded RDMA, stale-cache recovery and parked retransmits
// under open-loop KV load.
func (s Sweep) KVCrashCurve(prof *transport.Profile, sc Scale, rates []float64, restart sim.Time, o KVOpts) []KVSLOPoint {
	pts := make([]KVSLOPoint, len(rates))
	s.parfor(len(rates), func(i int) {
		p := o
		p.Prof, p.Scale, p.Cached = prof, sc, true
		p.Crash = CrashFaults(rates[i], restart)
		r := s.RunKV(p)
		if want := int64(sc.Threads) * o.Ops; r.Merged.Ops != want {
			panic(fmt.Sprintf("bench: kv at crash rate %g completed %d/%d ops", rates[i], r.Merged.Ops, want))
		}
		pts[i] = KVSLOPoint{Rate: rates[i], Result: r,
			P99Us: r.Merged.Quantile(0.99).Usecs(), Availability: r.Merged.Availability()}
	})
	return pts
}

// PrintKVSLO emits one SLO-curve table (loss or crash sweep) and
// returns its points.
func PrintKVSLO(w io.Writer, kind string, prof *transport.Profile, sc Scale, pts []KVSLOPoint, o KVOpts) {
	slo := o.SLO
	if slo == 0 {
		slo = kv.DefaultSLO
	}
	fmt.Fprintf(w, "# KV SLO — %s, %s: availability = ops inside %v at theta %.2f, read mix %.2f, rate %.0f/s vs %s rate\n",
		prof.Name, sc, slo, o.Theta, o.ReadFrac, o.Rate, kind)
	fmt.Fprintf(w, "%8s %8s %8s %9s %7s %8s %7s %7s %7s\n",
		kind, "p50(us)", "p99(us)", "avail", "torn", "am-falls", "retx", "stale", "crashes")
	for _, pt := range pts {
		fl := pt.Result.Run.Flight
		fmt.Fprintf(w, "%8.3f %8.2f %8.2f %9.4f %7d %8d %7d %7d %7d\n",
			pt.Rate, pt.Result.Merged.Quantile(0.50).Usecs(), pt.P99Us, pt.Availability,
			pt.Result.Table.TornRetries, pt.Result.Table.AMLookups,
			fl[flight.KindRetransmit], fl[flight.KindStaleNack], fl[flight.KindCrash])
	}
}
