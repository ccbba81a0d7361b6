package bench

import (
	"fmt"
	"io"

	"xlupc/internal/core"
	"xlupc/internal/dis"
	"xlupc/internal/flight"
	"xlupc/internal/sim"
	"xlupc/internal/transport"
)

// divergenceDump writes rt's all-node flight tail (when the run has
// rings and a dump sink) before a checksum-divergence panic, so the wire
// history leading to the divergence is not lost with the process.
func divergenceDump(rt *core.Runtime, what string) {
	if rt == nil || !rt.FlightRecorder().HasRings() || rt.Config().Flight.Dump == nil {
		return
	}
	dump := rt.Config().Flight.Dump
	fmt.Fprintf(dump, "# flight dump: %s\n", what)
	_ = rt.WriteFlightDump(dump, nil)
}

// FlightCapture runs one deterministic, deliberately hazard-rich
// workload (the pointer stressmark at 5%% loss with crash/restart
// events, reliable delivery on) with rings sized by s.Flight (nil: the
// defaults) and writes the all-node dump to w — the xlupc-chaos/-report
// "-flight-dump PATH" on-demand capture, and a quick way to see what a
// dump looks like without arranging a failure.
func (s Sweep) FlightCapture(w io.Writer) error {
	fc := ChaosFaults(0.05)
	rc := transport.DefaultRelConfig()
	rt, err := core.NewRuntime(core.Config{
		Threads: 8, Nodes: 4, Profile: transport.GM(), Cache: core.DefaultCache(),
		Seed: s.Seed, Fault: &fc, Rel: &rc,
		Crash:  CrashFaults(0.2, 60*sim.Us),
		Flight: &flight.Config{PerNode: s.Flight.EffPerNode(), Tail: s.Flight.EffTail()},
	})
	if err != nil {
		return err
	}
	if _, _, err := dis.Run(rt, dis.Pointer, dis.Params{}); err != nil {
		// Even a failed capture run has a story to tell; dump it, then
		// report the failure.
		_ = rt.WriteFlightDump(w, err)
		return err
	}
	return rt.WriteFlightDump(w, nil)
}
