package bench

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"xlupc/internal/core"
	"xlupc/internal/transport"
)

// The simulation's determinism contract: a run is a pure function of
// its configuration and seed. Virtual time, cache behaviour and every
// other reported statistic must be bit-identical across repeated runs,
// across sequential and parallel sweeps, and across GOMAXPROCS
// settings — wall-clock parallelism must never leak into results.

// TestRunStatsBitIdenticalAcrossRuns repeats one stressmark run with
// the same seed and requires identical RunStats, field for field.
func TestRunStatsBitIdenticalAcrossRuns(t *testing.T) {
	sc := Scale{Threads: 8, Nodes: 2}
	first := runOnce(Sweep{Seed: 7}, "pointer", sc, transport.GM(), core.DefaultCache())
	for i := 0; i < 3; i++ {
		again := runOnce(Sweep{Seed: 7}, "pointer", sc, transport.GM(), core.DefaultCache())
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("run %d diverged:\nfirst: %+v\nagain: %+v", i, first, again)
		}
	}
}

// TestRunStatsIdenticalAcrossGOMAXPROCS runs the same simulation under
// GOMAXPROCS=1 and a high setting; the kernel's strict one-at-a-time
// handoff must make scheduler parallelism invisible.
func TestRunStatsIdenticalAcrossGOMAXPROCS(t *testing.T) {
	sc := Scale{Threads: 8, Nodes: 2}
	prev := runtime.GOMAXPROCS(1)
	one := runOnce(Sweep{Seed: 3}, "update", sc, transport.LAPI(), core.DefaultCache())
	runtime.GOMAXPROCS(8)
	many := runOnce(Sweep{Seed: 3}, "update", sc, transport.LAPI(), core.DefaultCache())
	runtime.GOMAXPROCS(prev)
	if !reflect.DeepEqual(one, many) {
		t.Fatalf("GOMAXPROCS changed results:\n1:    %+v\nmany: %+v", one, many)
	}
}

// TestSweepsSequentialVsParallelIdentical runs the figure sweeps with
// the harness forced sequential and forced wide, and requires the
// results to match exactly — ordering included.
func TestSweepsSequentialVsParallelIdentical(t *testing.T) {
	scales := []Scale{{8, 2}, {16, 4}}
	run := func(workers int) (fig9 []Fig9Point, fig8 []HitRatePoint, micro []LatencyPoint, miss float64) {
		s := Sweep{Seed: 5, Workers: workers}
		fig9 = s.Fig9(transport.GM(), scales)
		fig8 = s.Fig8("pointer", scales, []int{4, 100})
		micro = s.MicroSweep(OpGet, transport.GM(), []int{8, 1024}, 3)
		miss = s.MissOverhead(transport.GM())
		return
	}
	seq9, seq8, seqM, seqMiss := run(1)
	par9, par8, parM, parMiss := run(8)
	if !reflect.DeepEqual(seq9, par9) {
		t.Errorf("Fig9 parallel diverged:\nseq: %+v\npar: %+v", seq9, par9)
	}
	if !reflect.DeepEqual(seq8, par8) {
		t.Errorf("Fig8 parallel diverged:\nseq: %+v\npar: %+v", seq8, par8)
	}
	if !reflect.DeepEqual(seqM, parM) {
		t.Errorf("MicroSweep parallel diverged:\nseq: %+v\npar: %+v", seqM, parM)
	}
	if seqMiss != parMiss {
		t.Errorf("MissOverhead parallel diverged: seq %v, par %v", seqMiss, parMiss)
	}
}

// TestSweepsSideBySide runs the same figure from two goroutines at once,
// one sweep sequential and one eight wide: the worker count is each
// sweep's own, so neither run sees the other's and both give the same
// points.
func TestSweepsSideBySide(t *testing.T) {
	var pts [2][]HitRatePoint
	var wg sync.WaitGroup
	for i, workers := range []int{1, 8} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pts[i] = Sweep{Seed: 3, Workers: workers}.Fig8("pointer", GMScales(16), []int{4, 100})
		}()
	}
	wg.Wait()
	if len(pts[0]) == 0 || !reflect.DeepEqual(pts[0], pts[1]) {
		t.Fatalf("side-by-side sweeps diverged:\nWorkers 1: %+v\nWorkers 8: %+v", pts[0], pts[1])
	}
}

// TestFig9CISequentialVsParallelIdentical covers the replicated-run
// driver: per-replication seeds and the aggregation order must not
// depend on worker scheduling.
func TestFig9CISequentialVsParallelIdentical(t *testing.T) {
	sc := Scale{Threads: 8, Nodes: 2}
	seq := Sweep{Seed: 11, Workers: 1}.Fig9CI("pointer", transport.GM(), sc, 4)
	par := Sweep{Seed: 11, Workers: 8}.Fig9CI("pointer", transport.GM(), sc, 4)
	if seq.Mean() != par.Mean() || seq.CI95() != par.CI95() {
		t.Fatalf("Fig9CI diverged: seq mean %v ci %v, par mean %v ci %v",
			seq.Mean(), seq.CI95(), par.Mean(), par.CI95())
	}
}

// TestParforPropagatesLowestPanic checks a parallel sweep surfaces the
// same panic a sequential loop would have hit first.
func TestParforPropagatesLowestPanic(t *testing.T) {
	defer func() {
		r := recover()
		if r != "boom-1" {
			t.Fatalf("recovered %v, want boom-1", r)
		}
	}()
	Sweep{Workers: 4}.parfor(8, func(i int) {
		if i == 1 || i == 6 {
			panic("boom-" + string(rune('0'+i)))
		}
	})
	t.Fatal("parfor did not panic")
}
