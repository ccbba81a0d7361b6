package bench

import (
	"reflect"
	"strings"
	"testing"

	"xlupc/internal/core"
	"xlupc/internal/transport"
)

// withExec runs fn with the package execution mode scoped to m.
func withExec(m core.ExecMode, fn func()) {
	prev := SetExec(m)
	defer SetExec(prev)
	fn()
}

// TestDriversAgreeAcrossExecModes runs the refitted sweep drivers —
// stressmark, microbenchmark, chaos, crash and KV — in both execution
// modes and requires identical figures. This is the flag's honesty
// check: -exec cont must change host mechanics only.
func TestDriversAgreeAcrossExecModes(t *testing.T) {
	sc := Scale{Threads: 8, Nodes: 4}
	kvOpts := KVOpts{
		Scale: sc, Prof: transport.GM(), Ops: 60, Keys: 512,
		Theta: 0.9, ReadFrac: 0.9, Rate: 120000, Cached: true, Seed: 5,
	}
	type figures struct {
		mark  core.RunStats
		micro float64
		chaos ChaosPoint
		crash CrashPoint
		kv    KVResult
	}
	collect := func(m core.ExecMode) (f figures) {
		withExec(m, func() {
			f.mark = runStressmark("pointer", sc, transport.GM(), core.DefaultCache(), 5)
			s := MicroLatency(OpGet, true, MicroOpts{
				Prof: transport.GM(), Size: 64, Reps: 6, Warm: 2, Seed: 5})
			f.micro = s.Mean()
			f.chaos = ChaosSweep("update", transport.GM(), sc, []float64{0.01}, 5)[0]
			f.crash = CrashSweep("update", transport.GM(), sc, []float64{0.1}, 150, 5)[0]
			f.kv = RunKV(kvOpts)
		})
		return
	}
	g, c := collect(core.ExecGoroutine), collect(core.ExecCont)
	if !reflect.DeepEqual(g.mark, c.mark) {
		t.Errorf("runStressmark diverged:\ngoroutine %+v\ncont      %+v", g.mark, c.mark)
	}
	if g.micro != c.micro {
		t.Errorf("MicroLatency diverged: goroutine %v, cont %v", g.micro, c.micro)
	}
	if !reflect.DeepEqual(g.chaos, c.chaos) {
		t.Errorf("ChaosSweep diverged:\ngoroutine %+v\ncont      %+v", g.chaos, c.chaos)
	}
	if !reflect.DeepEqual(g.crash, c.crash) {
		t.Errorf("CrashSweep diverged:\ngoroutine %+v\ncont      %+v", g.crash, c.crash)
	}
	if !reflect.DeepEqual(g.kv, c.kv) {
		t.Errorf("RunKV diverged:\ngoroutine %+v\ncont      %+v", g.kv, c.kv)
	}
}

// TestKVCachedBeatsAMOnlySweep is the acceptance claim at driver
// level: across the skew sweep, the cached one-sided path improves on
// AM-only, and more so where the hit rate is high.
func TestKVCachedBeatsAMOnlySweep(t *testing.T) {
	sc := Scale{Threads: 8, Nodes: 4}
	pts := KVSkewSweep(transport.GM(), sc, []float64{0, 0.9, 0.99}, KVOpts{
		Ops: 80, Keys: 1024, ReadFrac: 0.9, Rate: 0, Seed: 3,
	})
	for _, pt := range pts {
		if pt.Improvement <= 0 {
			t.Errorf("theta %.2f: cached path not faster (improvement %.1f%%)", pt.Theta, pt.Improvement)
		}
		if pt.Cached.HitRate < 0.5 {
			t.Errorf("theta %.2f: kv hit rate %.2f unexpectedly low", pt.Theta, pt.Cached.HitRate)
		}
		if pt.Cached.Merged.Ops != pt.AMOnly.Merged.Ops {
			t.Errorf("theta %.2f: op counts diverged: %d vs %d",
				pt.Theta, pt.Cached.Merged.Ops, pt.AMOnly.Merged.Ops)
		}
	}
}

// TestKVCurvesCompleteUnderHazards: loss and crash runs must finish
// every op (the curves panic otherwise) with nonzero availability.
func TestKVCurvesCompleteUnderHazards(t *testing.T) {
	sc := Scale{Threads: 8, Nodes: 4}
	o := KVOpts{Ops: 50, Keys: 512, Theta: 0.9, ReadFrac: 0.9, Rate: 120000, Seed: 9}
	loss := KVLossCurve(transport.GM(), sc, []float64{0.02}, o)
	if loss[0].Availability <= 0 {
		t.Errorf("loss curve availability %v, want > 0", loss[0].Availability)
	}
	crash := KVCrashCurve(transport.GM(), sc, []float64{0.2}, 150, o)
	if crash[0].Availability <= 0 {
		t.Errorf("crash curve availability %v, want > 0", crash[0].Availability)
	}
	if crash[0].Result.Run.Crashes == 0 {
		t.Errorf("crash curve at rate 0.2 crashed no nodes — schedule not applied")
	}
}

func TestParseExec(t *testing.T) {
	for s, want := range map[string]core.ExecMode{
		"": core.ExecGoroutine, "goroutine": core.ExecGoroutine, "cont": core.ExecCont,
	} {
		got, err := ParseExec(s)
		if err != nil || got != want {
			t.Errorf("ParseExec(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseExec("fibers"); err == nil {
		t.Error("ParseExec accepted an unknown mode")
	}
}

func TestParseRatesAndFracs(t *testing.T) {
	if got, err := ParseRates("-losses", " 0, 0.5 ,0.99,"); err != nil || len(got) != 3 {
		t.Errorf("ParseRates = %v, %v", got, err)
	}
	for _, bad := range []string{"1", "1.5", "-0.1", "NaN", "x"} {
		if _, err := ParseRates("-losses", bad); err == nil {
			t.Errorf("ParseRates accepted %q", bad)
		}
	}
	if got, err := ParseFracs("-readmix", "0,0.5,1"); err != nil || len(got) != 3 {
		t.Errorf("ParseFracs = %v, %v", got, err)
	}
	for _, bad := range []string{"1.01", "-0.1", "NaN"} {
		if _, err := ParseFracs("-readmix", bad); err == nil {
			t.Errorf("ParseFracs accepted %q", bad)
		}
	}
	if err := ValidatePositive("-ops", 1); err != nil {
		t.Errorf("ValidatePositive rejected 1: %v", err)
	}
	for _, bad := range []int64{0, -5} {
		if err := ValidatePositive("-ops", bad); err == nil {
			t.Errorf("ValidatePositive accepted %d", bad)
		}
	}
}

func TestParseSweepFlags(t *testing.T) {
	for _, c := range []struct {
		exec string
		reps int
		mode core.ExecMode
		err  string // substring of the error; "" = accepted
	}{
		{"goroutine", 1, core.ExecGoroutine, ""},
		{"cont", 20, core.ExecCont, ""},
		{"goroutine", 0, 0, "-reps (0) must be positive"},
		{"cont", -1, 0, "-reps (-1) must be positive"},
		{"threads", 10, 0, "threads"},
	} {
		mode, err := ParseSweepFlags(c.exec, c.reps)
		switch {
		case c.err == "" && (err != nil || mode != c.mode):
			t.Errorf("ParseSweepFlags(%q, %d) = %v, %v; want %v", c.exec, c.reps, mode, err, c.mode)
		case c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)):
			t.Errorf("ParseSweepFlags(%q, %d): error %v, want one mentioning %q", c.exec, c.reps, err, c.err)
		}
	}
}
