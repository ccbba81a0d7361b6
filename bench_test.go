// Package xlupc's root benchmark suite regenerates every figure of the
// paper at reduced scale, one testing.B benchmark per figure/panel.
// Each benchmark reports the figure's headline metric (improvement
// percentage, hit rate, or overhead) via b.ReportMetric, so
// `go test -bench=. -benchmem` prints the reproduction alongside the
// simulator's own throughput. Full-scale sweeps live in cmd/xlupc-*.
package xlupc

import (
	"fmt"
	"testing"

	"xlupc/internal/apps"
	"xlupc/internal/bench"
	"xlupc/internal/core"
	"xlupc/internal/dis"
	"xlupc/internal/mem"
	"xlupc/internal/transport"
)

func reportImprovement(b *testing.B, pts []bench.LatencyPoint, size int) {
	b.Helper()
	for _, p := range pts {
		if p.Size == size {
			b.ReportMetric(p.Improvement, "improv%")
			return
		}
	}
}

// --- Figure 6: latency improvement vs message size ----------------------

func BenchmarkFig6GetGM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := bench.Sweep{Seed: 1}.MicroSweep(bench.OpGet, transport.GM(), []int{16, 4 << 10}, 4)
		reportImprovement(b, pts, 16)
	}
}

func BenchmarkFig6GetLAPI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := bench.Sweep{Seed: 1}.MicroSweep(bench.OpGet, transport.LAPI(), []int{16, 4 << 10}, 4)
		reportImprovement(b, pts, 16)
	}
}

func BenchmarkFig6PutGM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := bench.Sweep{Seed: 1}.MicroSweep(bench.OpPut, transport.GM(), []int{16, 4 << 10}, 4)
		reportImprovement(b, pts, 4<<10)
	}
}

func BenchmarkFig6PutLAPI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := bench.Sweep{Seed: 1}.MicroSweep(bench.OpPut, transport.LAPI(), []int{16, 4 << 10}, 4)
		reportImprovement(b, pts, 16) // the famous negative point
	}
}

// --- Figure 7: absolute small-message GET latency ------------------------

func BenchmarkFig7GetLatencyGM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := bench.Sweep{Seed: 1}.MicroSweep(bench.OpGet, transport.GM(), []int{1, 1 << 10, 8 << 10}, 4)
		b.ReportMetric(pts[0].WithUs, "cached_us")
		b.ReportMetric(pts[0].WithoutUs, "uncached_us")
	}
}

func BenchmarkFig7GetLatencyLAPI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := bench.Sweep{Seed: 1}.MicroSweep(bench.OpGet, transport.LAPI(), []int{1, 1 << 10, 8 << 10}, 4)
		b.ReportMetric(pts[0].WithUs, "cached_us")
		b.ReportMetric(pts[0].WithoutUs, "uncached_us")
	}
}

// --- Figure 8: cache hit rate by capacity and scale ----------------------

func BenchmarkFig8Pointer(b *testing.B) {
	scales := bench.GMScales(64)
	for i := 0; i < b.N; i++ {
		pts := bench.Sweep{Seed: 1}.Fig8("pointer", scales, []int{4, 100})
		b.ReportMetric(pts[len(scales)-1].HitRate, "hit4@64-16")
		b.ReportMetric(pts[2*len(scales)-1].HitRate, "hit100@64-16")
	}
}

func BenchmarkFig8Neighborhood(b *testing.B) {
	scales := bench.GMScales(64)
	for i := 0; i < b.N; i++ {
		pts := bench.Sweep{Seed: 1}.Fig8("neighborhood", scales, []int{4})
		b.ReportMetric(pts[len(scales)-1].HitRate, "hit4@64-16")
	}
}

// --- Figure 9: DIS stressmark improvements -------------------------------

func fig9Metric(b *testing.B, pts []bench.Fig9Point, mark string) {
	b.Helper()
	for _, p := range pts {
		if p.Mark == mark { // first (smallest) scale of each mark
			b.ReportMetric(p.Improvement, mark+"%")
			return
		}
	}
}

func BenchmarkFig9GM(b *testing.B) {
	scales := bench.GMScales(16)
	for i := 0; i < b.N; i++ {
		pts := bench.Sweep{Seed: 1}.Fig9(transport.GM(), scales)
		for _, m := range []string{"pointer", "update", "neighborhood", "field"} {
			fig9Metric(b, pts, m)
		}
	}
}

func BenchmarkFig9LAPI(b *testing.B) {
	scales := bench.LAPIScales(16)
	for i := 0; i < b.N; i++ {
		pts := bench.Sweep{Seed: 1}.Fig9(transport.LAPI(), scales)
		for _, m := range []string{"pointer", "update", "neighborhood", "field"} {
			fig9Metric(b, pts, m)
		}
	}
}

// --- §6 and §4.5 claims ---------------------------------------------------

func BenchmarkMissOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.ReportMetric(bench.Sweep{Seed: 1}.MissOverhead(transport.GM()), "gm%")
		b.ReportMetric(bench.Sweep{Seed: 1}.MissOverhead(transport.LAPI()), "lapi%")
	}
}

func BenchmarkPinTableOccupancy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		peaks := bench.Sweep{Seed: 1}.PinUsage(transport.GM(), bench.Scale{Threads: 8, Nodes: 2})
		max := 0
		for _, p := range peaks {
			if p > max {
				max = p
			}
		}
		b.ReportMetric(float64(max), "peak_entries")
	}
}

// --- Ablations (design choices called out in DESIGN.md) -------------------

// BenchmarkAblationFullTable compares the paper's bounded cache with
// the rejected O(nodes×objects) full-table design (unbounded cache):
// at these scales the full table's hit rate advantage is negligible
// while its memory is unbounded.
func BenchmarkAblationFullTable(b *testing.B) {
	run := func(capacity int) float64 {
		rt, err := core.NewRuntime(core.Config{
			Threads: 32, Nodes: 8, Profile: transport.GM(),
			Cache: core.CacheConfig{Enabled: true, Capacity: capacity}, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		st, _, err := dis.Run(rt, dis.Pointer, dis.Params{})
		if err != nil {
			b.Fatal(err)
		}
		return st.Cache.HitRate()
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(run(100), "bounded_hit")
		b.ReportMetric(run(-1), "fulltable_hit")
	}
}

// BenchmarkAblationEviction compares LRU with random eviction on the
// capacity-pressured Pointer working set.
func BenchmarkAblationEviction(b *testing.B) {
	run := func(policy core.CacheConfig) float64 {
		rt, err := core.NewRuntime(core.Config{
			Threads: 64, Nodes: 16, Profile: transport.GM(), Cache: policy, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		st, _, err := dis.Run(rt, dis.Pointer, dis.Params{})
		if err != nil {
			b.Fatal(err)
		}
		return st.Cache.HitRate()
	}
	for i := 0; i < b.N; i++ {
		lru := core.CacheConfig{Enabled: true, Capacity: 8}
		rnd := core.CacheConfig{Enabled: true, Capacity: 8, Policy: 1 /* RandomEvict */}
		b.ReportMetric(run(lru), "lru_hit")
		b.ReportMetric(run(rnd), "random_hit")
	}
}

// BenchmarkAblationPinPolicy compares pin-everything with the
// limited-pinning technique of [10] under registration pressure:
// similar performance, bounded pinned memory.
func BenchmarkAblationPinPolicy(b *testing.B) {
	run := func(policy core.PinConfig) (elapsedUs float64, peakPinned int) {
		c := core.Config{
			Threads: 8, Nodes: 4, Profile: transport.GM(),
			Cache: core.DefaultCache(), Seed: 1, Pin: &policy,
		}
		rt, err := core.NewRuntime(c)
		if err != nil {
			b.Fatal(err)
		}
		st, err := rt.Run(func(t *core.Thread) {
			var as []*core.SharedArray
			for i := 0; i < 4; i++ {
				as = append(as, t.AllAlloc(fmt.Sprintf("A%d", i), 256, 8, 32))
			}
			t.Barrier()
			for r := 0; r < 20; r++ {
				for _, a := range as {
					t.GetUint64(a.At(int64(t.Rand().Intn(256))))
				}
			}
			t.Barrier()
		})
		if err != nil {
			b.Fatal(err)
		}
		return st.Elapsed.Usecs(), st.MaxLive
	}
	for i := 0; i < b.N; i++ {
		allUs, allPeak := run(core.PinConfig{Policy: mem.PinAll})
		limUs, limPeak := run(core.PinConfig{Policy: mem.PinLimited, MaxTotal: 1 << 10})
		b.ReportMetric(allUs, "pinall_us")
		b.ReportMetric(limUs, "limited_us")
		b.ReportMetric(float64(allPeak), "pinall_peak")
		b.ReportMetric(float64(limPeak), "limited_peak")
	}
}

// --- Application kernels (the §6 future-work measurement) ----------------

func appImprovement(b *testing.B, kernel func(*core.Thread) bool) float64 {
	run := func(cc core.CacheConfig) float64 {
		rt, err := core.NewRuntime(core.Config{
			Threads: 8, Nodes: 4, Profile: transport.GM(), Cache: cc, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		st, err := rt.Run(func(t *core.Thread) {
			if !kernel(t) && t.ID() == 0 {
				b.Error("kernel verification failed")
			}
		})
		if err != nil {
			b.Fatal(err)
		}
		return st.Elapsed.Usecs()
	}
	z, w := run(core.NoCache()), run(core.DefaultCache())
	return 100 * (z - w) / z
}

func BenchmarkAppCG(b *testing.B) {
	for i := 0; i < b.N; i++ {
		imp := appImprovement(b, func(t *core.Thread) bool { return apps.CG(t).Verified })
		b.ReportMetric(imp, "improv%")
	}
}

func BenchmarkAppIS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		imp := appImprovement(b, func(t *core.Thread) bool { return apps.IS(t).Verified })
		b.ReportMetric(imp, "improv%")
	}
}
