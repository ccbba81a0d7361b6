// Engine throughput benchmarks: raw event rate and allocation profile
// of the simulation kernel, plus a paper-scale sweep point. These gauge
// the simulator itself (events/sec of the lane event queue and of its
// overflow heap, callback fast paths, process handoff) rather than
// reproducing a figure.
package xlupc

import (
	"testing"

	"xlupc/internal/bench"
	"xlupc/internal/sim"
	"xlupc/internal/transport"
)

// BenchmarkEngineEventThroughput measures the pure callback event loop:
// schedule-run-schedule with no processes, the kernel's fastest path.
func BenchmarkEngineEventThroughput(b *testing.B) {
	b.ReportAllocs()
	k := sim.NewKernel()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			k.After(10, tick)
		}
	}
	k.After(10, tick)
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(n)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkEngineFanout measures queue throughput under a wide pending
// set with recurring delays, the model's usual traffic: 1024 concurrent
// timers rescheduling themselves with one of 7 periods, so after the
// first round every push and pop is a FIFO lane operation plus a fix-up
// of the 7-entry head heap.
func BenchmarkEngineFanout(b *testing.B) {
	benchFanout(b, func(i int) func() sim.Duration {
		period := sim.Duration(10 + i%7)
		return func() sim.Duration { return period }
	})
}

// BenchmarkEngineFanoutIrregular is the same fan-out with a fresh
// pseudo-random delay on every reschedule (jitter, computed deadlines):
// no delay recurs, so every event takes the fallback path — a table
// miss, then the 4-ary overflow heap over all 1024 pending events.
func BenchmarkEngineFanoutIrregular(b *testing.B) {
	benchFanout(b, func(i int) func() sim.Duration {
		x := uint64(i)*0x9E3779B97F4A7C15 + 1
		return func() sim.Duration {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			return sim.Duration(10 + x%(1<<40))
		}
	})
}

// benchFanout runs 1024 self-rescheduling timers for b.N events;
// delays(i) returns timer i's next-delay function.
func benchFanout(b *testing.B, delays func(i int) func() sim.Duration) {
	b.ReportAllocs()
	k := sim.NewKernel()
	const width = 1024
	n := 0
	for i := 0; i < width; i++ {
		next := delays(i)
		var tick func()
		tick = func() {
			n++
			if n < b.N {
				k.After(next(), tick)
			}
		}
		k.After(next(), tick)
	}
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(n)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkEngineProcessHandoff measures the goroutine-backed process
// path: one park/resume rendezvous per simulated hop.
func BenchmarkEngineProcessHandoff(b *testing.B) {
	b.ReportAllocs()
	k := sim.NewKernel()
	k.Spawn("walker", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(10)
		}
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "switches/sec")
}

// BenchmarkFig8PointerPaperScale runs the Figure 8 Pointer sweep point
// at 256 threads on 64 nodes — a quarter of the paper's largest
// 2048-512 configuration — in one piece. It exists to show paper-scale
// machines are within reach of a unit-test budget.
func BenchmarkFig8PointerPaperScale(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pts := bench.Sweep{Seed: 1}.Fig8("pointer", []bench.Scale{{Threads: 256, Nodes: 64}}, []int{10})
		b.ReportMetric(pts[0].HitRate, "hit%")
	}
}

// BenchmarkFig9GMWide is BenchmarkFig9GM with the experiment harness
// fanned out over all cores (the -parallel path); virtual-time results
// are identical to the sequential run by construction.
func BenchmarkFig9GMWide(b *testing.B) {
	b.ReportAllocs()
	s := bench.Sweep{Seed: 1, Workers: 0} // 0 = GOMAXPROCS
	for i := 0; i < b.N; i++ {
		pts := s.Fig9(transport.GM(), bench.GMScales(16))
		for _, m := range []string{"pointer", "update", "neighborhood", "field"} {
			fig9Metric(b, pts, m)
		}
	}
}
