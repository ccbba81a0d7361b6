package bench

import (
	"fmt"
	"io"
	"sync/atomic"

	"xlupc/internal/core"
	"xlupc/internal/dis"
	"xlupc/internal/flight"
	"xlupc/internal/sim"
	"xlupc/internal/transport"
)

// flightCfg is the package-level flight-recorder setting, mirroring
// SetParallelism: the chaos/crash sweep drivers attach it to every
// runtime they build. Atomic because sweeps read it from parfor
// workers.
var flightCfg atomic.Pointer[flight.Config]

// SetFlight makes the chaos and crash sweep drivers attach a flight
// recorder with the given configuration to every run they build (nil
// restores the default: no recorder). Recording costs no virtual time,
// so sweep figures are bit-identical either way; what changes is that a
// failing run (TransportError, CrashError, checksum divergence) leaves
// a last-N-events dump behind. It returns the previous setting so
// callers can scope the change.
func SetFlight(cfg *flight.Config) *flight.Config {
	return flightCfg.Swap(cfg)
}

// divergenceDump writes rt's all-node flight tail (when a recorder is
// attached and a dump sink configured) before a checksum-divergence
// panic, so the wire history leading to the divergence is not lost with
// the process.
func divergenceDump(rt *core.Runtime, what string) {
	cfg := flightCfg.Load()
	if rt == nil || cfg == nil || cfg.Dump == nil || rt.FlightRecorder() == nil {
		return
	}
	fmt.Fprintf(cfg.Dump, "# flight dump: %s\n", what)
	_ = rt.WriteFlightDump(cfg.Dump, nil)
}

// FlightCapture runs one deterministic, deliberately hazard-rich
// workload (the pointer stressmark at 5%% loss with crash/restart
// events, reliable delivery on) with a flight recorder attached and
// writes the all-node dump to w — the xlupc-chaos/-report "-flight-dump
// PATH" on-demand capture, and a quick way to see what a dump looks
// like without arranging a failure.
func FlightCapture(w io.Writer, seed int64) error {
	cfg := flight.Config{PerNode: flight.DefaultPerNode, Tail: flight.DefaultTail}
	if cur := flightCfg.Load(); cur != nil {
		cfg = *cur
	}
	fc := ChaosFaults(0.05)
	rc := transport.DefaultRelConfig()
	rt, err := core.NewRuntime(core.Config{
		Threads: 8, Nodes: 4, Profile: transport.GM(), Cache: core.DefaultCache(),
		Seed: seed, Fault: &fc, Rel: &rc,
		Crash:  CrashFaults(0.2, 60*sim.Us),
		Flight: &flight.Config{PerNode: cfg.PerNode, Tail: cfg.Tail},
	})
	if err != nil {
		return err
	}
	p := dis.Default(8)
	if _, err := rt.Run(func(t *core.Thread) { dis.Pointer(t, p) }); err != nil {
		// Even a failed capture run has a story to tell; dump it, then
		// report the failure.
		_ = rt.WriteFlightDump(w, err)
		return err
	}
	return rt.WriteFlightDump(w, nil)
}
