package bench

import (
	"fmt"
	"io"

	"xlupc/internal/core"
	"xlupc/internal/dis"
	"xlupc/internal/sim"
	"xlupc/internal/telemetry"
	"xlupc/internal/trace"
	"xlupc/internal/transport"
)

// PhaseRun executes one DIS stressmark with the telemetry layer
// attached and returns the populated hub alongside the run statistics.
func (s Sweep) PhaseRun(mark string, prof *transport.Profile, sc Scale, cc core.CacheConfig) (*telemetry.Telemetry, core.RunStats, error) {
	fn, err := dis.ByName(mark)
	if err != nil {
		return nil, core.RunStats{}, err
	}
	tel := telemetry.New()
	rt, err := core.NewRuntime(core.Config{
		Threads: sc.Threads, Nodes: sc.Nodes, Profile: prof, Cache: cc,
		Seed: s.Seed, Telemetry: tel,
	})
	if err != nil {
		return nil, core.RunStats{}, err
	}
	st, _, err := dis.Run(rt, fn, dis.Params{})
	if err != nil {
		return nil, core.RunStats{}, err
	}
	return tel, st, nil
}

// PrintPhaseTables writes the phase-attribution table of each op kind
// that has finished spans, plus a GET verdict line naming the dominant
// component — the answer to the paper's §4.6 question of where remote
// access time actually goes.
func PrintPhaseTables(w io.Writer, tel *telemetry.Telemetry, ops ...string) error {
	for _, op := range ops {
		if err := tel.WriteAttribution(w, op); err != nil {
			return err
		}
	}
	a := tel.Attribute("get")
	if a.Spans == 0 {
		return nil
	}
	dom := a.Dominant()
	_, err := fmt.Fprintf(w, "GET verdict: dominant component %q (%.1f%%); target-CPU/handler share %.1f%%\n",
		dom.Name, 100*a.Share(dom.Name), 100*telemetry.TargetShare(a))
	return err
}

// PrintPhaseBreakdown reproduces the §4.6 conclusion with the span
// machinery instead of the Paraver trace: on GM (no computation/
// communication overlap) the uncached Field stressmark's GETs are
// dominated by target-CPU and handler time — the target nodes are busy
// computing and the AM handlers wait for the CPU — while on LAPI the
// dedicated communication processor absorbs the handlers and that
// component shrinks.
func (s Sweep) PrintPhaseBreakdown(w io.Writer) {
	for _, prof := range []*transport.Profile{transport.GM(), transport.LAPI()} {
		f := s.fieldRun(prof, core.NoCache())
		fmt.Fprintf(w, "%-6s uncached Field: %v virtual time, %d remote GETs; target-CPU/handler share of GET time %.1f%% (cpu_wait %.1f%%)\n",
			prof.Name, f.elapsed, f.get.Spans, 100*telemetry.TargetShare(f.get), 100*f.get.Share(telemetry.PhaseCPUWait))
	}
}

// fieldRun is what the two §4.6 sections read of one telemetry run of Field on
// 16 threads / 4 nodes; the hub is dropped as soon as it is read.
type fieldRun struct {
	elapsed sim.Time
	get     telemetry.Attribution
	wait    trace.Profile
	longest sim.Time // the longest single GET wait
}

// fieldRun returns §4.6's Field run on prof with cache cc through the
// sweep's run table, which simulates each configuration once (under its
// lock): both §4.6 sections read the uncached GM run. A failed run
// panics, as a failed stressmark run of the table does (runMark).
func (s Sweep) fieldRun(prof *transport.Profile, cc core.CacheConfig) fieldRun {
	sc := Scale{Threads: 16, Nodes: 4}
	tab, k := s.table(), s.point("field", prof, sc, cc).key()
	tab.mu.Lock()
	defer tab.mu.Unlock()
	tab.fieldRequests++
	if f, ok := tab.field[k]; ok {
		return f
	}
	tel, st, err := s.PhaseRun("field", prof, sc, cc)
	if err != nil {
		panic(fmt.Sprintf("bench: field run failed: %v", err))
	}
	tr := trace.FromSpans(tel)
	f := fieldRun{elapsed: st.Elapsed, get: tel.Attribute("get"), longest: tr.MaxInterval(trace.StateGetWait).Dur()}
	for _, p := range tr.Profiles() {
		if p.State == trace.StateGetWait {
			f.wait = p
		}
	}
	tab.fieldSimulated++
	tab.field[k] = f
	return f
}
