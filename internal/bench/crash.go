package bench

import (
	"fmt"
	"io"

	"xlupc/internal/core"
	"xlupc/internal/dis"
	"xlupc/internal/fault"
	"xlupc/internal/flight"
	"xlupc/internal/sim"
	"xlupc/internal/transport"
)

// CrashFaults maps a headline crash rate to a full crash/restart
// schedule: per-node crash dice thrown every 400 µs at the given
// probability, restart windows between restart/2 and restart, bounded
// to three crashes per node inside a 20 ms horizon. rate <= 0 returns
// nil — no crash machinery, but callers still run the reliable layer
// (the crash-free baseline point).
func CrashFaults(rate float64, restart sim.Time) *core.CrashConfig {
	if rate <= 0 {
		return nil
	}
	return &core.CrashConfig{CrashConfig: fault.CrashConfig{
		Prob:       rate,
		Every:      400 * sim.Us,
		RestartMin: restart / 2,
		RestartMax: restart,
		Horizon:    20 * sim.Ms,
		MaxPerNode: 3,
	}}
}

// CrashPoint is one crash-rate measurement of a recovery curve.
type CrashPoint struct {
	Rate        float64
	RecoveryUs  float64       // mean restart -> first-successful-op gap, µs
	SlowdownPct float64       // elapsed vs the crash-free reliable baseline
	Checksum    uint64        // stressmark self-verification value
	Run         core.RunStats // crashes, drops at dead NICs, stale NACKs, recoveries
}

// runCrashMark runs one stressmark over the reliable layer with the
// given crash schedule (nil = crash-free baseline), with the sweep's
// flight rings when it has them, and returns its stats, the combined
// self-verification checksum, and the runtime (for flight-recorder
// post-mortems).
func (s Sweep) runCrashMark(mark string, sc Scale, prof *transport.Profile, cc *core.CrashConfig) (core.RunStats, uint64, *core.Runtime) {
	rc := transport.DefaultRelConfig()
	return runMark(mark, core.Config{
		Threads: sc.Threads, Nodes: sc.Nodes, Profile: prof, Cache: core.DefaultCache(), Seed: s.Seed,
		Rel: &rc, Crash: cc, Flight: s.Flight,
	}, dis.Params{})
}

// CrashSweep measures a recovery curve: the stressmark at each crash
// rate, all over the reliable-delivery layer, against a crash-free
// baseline with the identical configuration. Crash recovery being
// invisible to program semantics is the experiment's whole claim, so a
// checksum diverging from the baseline panics outright, after a flight
// dump when s.Flight gives the runs rings and a sink.
func (s Sweep) CrashSweep(mark string, prof *transport.Profile, sc Scale, rates []float64, restart sim.Time) []CrashPoint {
	base, baseSum, _ := s.runCrashMark(mark, sc, prof, nil)
	pts := make([]CrashPoint, len(rates))
	s.parfor(len(rates), func(i int) {
		st, sum, srt := s.runCrashMark(mark, sc, prof, CrashFaults(rates[i], restart))
		if sum != baseSum {
			divergenceDump(srt, fmt.Sprintf("%s at crash rate %g: checksum diverged from crash-free run: %x vs %x",
				mark, rates[i], sum, baseSum))
			panic(fmt.Sprintf("bench: %s at crash rate %g: checksum diverged from crash-free run: %x vs %x",
				mark, rates[i], sum, baseSum))
		}
		recovery := 0.0
		if n := st.Flight[flight.KindRestart]; n > 0 {
			recovery = st.RecoveryTime.Usecs() / float64(n)
		}
		pts[i] = CrashPoint{
			Rate:        rates[i],
			RecoveryUs:  recovery,
			SlowdownPct: 100 * (st.Elapsed.Usecs() - base.Elapsed.Usecs()) / base.Elapsed.Usecs(),
			Checksum:    sum,
			Run:         st,
		}
	})
	return pts
}

// PrintCrash emits one recovery-curve table and returns its points.
func (s Sweep) PrintCrash(w io.Writer, mark string, prof *transport.Profile, sc Scale, rates []float64, restart sim.Time) []CrashPoint {
	pts := s.CrashSweep(mark, prof, sc, rates, restart)
	fmt.Fprintf(w, "# Crash — %s on %s, %s: recovery behaviour vs crash rate (reliable delivery on, restart <= %v)\n",
		mark, prof.Name, sc, restart)
	fmt.Fprintf(w, "%8s %8s %7s %7s %8s %7s %6s %5s %10s %9s %17s\n",
		"rate", "crashes", "drops", "stale", "invalid", "parked", "retx", "recov", "recov(us)", "slow(%)", "checksum")
	for _, pt := range pts {
		fl := pt.Run.Flight
		fmt.Fprintf(w, "%8.3f %8d %7d %7d %8d %7d %6d %5d %10.2f %9.2f %17x\n",
			pt.Rate, fl[flight.KindCrash], fl[flight.KindCrashDrop], fl[flight.KindStaleNack], pt.Run.StaleInvalidated,
			fl[flight.KindPark], fl[flight.KindRetransmit], fl[flight.KindRestart], pt.RecoveryUs, pt.SlowdownPct, pt.Checksum)
	}
	return pts
}
