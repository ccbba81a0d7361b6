package bench

import (
	"fmt"
	"io"

	"xlupc/internal/core"
	"xlupc/internal/dis"
	"xlupc/internal/telemetry"
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
	sc := Scale{Threads: 16, Nodes: 4}
	for _, prof := range []*transport.Profile{transport.GM(), transport.LAPI()} {
		tel, st, err := s.PhaseRun("field", prof, sc, core.NoCache())
		if err != nil {
			panic(err)
		}
		a := tel.Attribute("get")
		fmt.Fprintf(w, "%-6s uncached Field: %v virtual time, %d remote GETs; target-CPU/handler share of GET time %.1f%% (cpu_wait %.1f%%)\n",
			prof.Name, st.Elapsed, a.Spans, 100*telemetry.TargetShare(a), 100*a.Share(telemetry.PhaseCPUWait))
	}
}
