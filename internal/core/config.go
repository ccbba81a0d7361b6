// Package core implements the XLUPC-like UPC runtime of the paper on
// top of the simulated transports: UPC threads mapped onto cluster
// nodes in hybrid mode, shared objects named through the Shared
// Variable Directory, blocking GET/PUT with the remote address cache
// fast path, bulk transfers, fences, hierarchical barriers,
// collectives, remote atomics, and collective allocation with eager
// cache invalidation on free.
package core

import (
	"fmt"

	"xlupc/internal/fault"
	"xlupc/internal/flight"
	"xlupc/internal/mem"
	"xlupc/internal/telemetry"
	"xlupc/internal/transport"
)

// PutCacheMode controls whether PUT operations may use the remote
// address cache. The paper found RDMA-mode PUTs a net loss on LAPI and
// disabled them there (§4.3); Auto follows the profile's choice.
type PutCacheMode int

const (
	PutCacheAuto PutCacheMode = iota
	PutCacheOn
)

// CacheConfig configures the remote address cache.
type CacheConfig struct {
	// Enabled turns the cache machinery on. When false the runtime is
	// the paper's baseline: every remote access goes through the
	// active-message path with no lookups, no piggybacking and no
	// insert costs.
	Enabled bool
	// Capacity is the entry limit: the paper's deployment uses 100,
	// Figure 8 sweeps 4 and 10, 0 forces every lookup to miss (the
	// miss-overhead experiment), and a negative value is unbounded
	// (the full-table ablation).
	Capacity int
	// PutMode optionally overrides the profile's PUT-caching choice.
	PutMode PutCacheMode
}

// DefaultCache returns the paper's deployed configuration: enabled,
// 100 entries, LRU.
func DefaultCache() CacheConfig {
	return CacheConfig{Enabled: true, Capacity: 100}
}

// NoCache returns the baseline configuration.
func NoCache() CacheConfig { return CacheConfig{} }

// ExecMode, its constants and Config.Exec select nothing: Run backs
// every thread with a coroutine and RunCont with none, whatever the
// field holds. They stay declared only because benchmark/api.go, which
// is frozen while its baseline stands, still assigns them; they go when
// it stops.
type ExecMode int

const (
	ExecGoroutine ExecMode = iota
	ExecCont
)

// Config describes one simulated run.
type Config struct {
	// Threads is the number of UPC threads; Nodes the number of
	// cluster nodes. Threads must be a positive multiple of Nodes
	// (hybrid mode places Threads/Nodes on each node; threads on the
	// same node communicate through shared memory).
	Threads int
	Nodes   int
	// Profile selects the transport (transport.GM() or
	// transport.LAPI()). Required.
	Profile *transport.Profile
	Exec    ExecMode // unread; see ExecMode
	// Cache configures the remote address cache.
	Cache CacheConfig
	// Seed drives all pseudo-randomness in the run (workloads,
	// eviction tie-breaks), making runs reproducible.
	Seed int64
	// Telemetry, when non-nil, receives metrics and per-operation spans
	// from every layer of the run: protocol choices, phase timings,
	// cache/pin/resource statistics, plus the compute intervals between
	// operations (trace.FromSpans turns the two into the per-thread
	// state view of the paper's §4.6 Field analysis). It costs no
	// virtual time — a run with telemetry finishes at the identical
	// virtual instant as one without.
	Telemetry *telemetry.Telemetry
	// Pin, when non-nil, overrides the profile's pinning policy and
	// registration limits — the knob behind the pin-everything vs
	// limited-pinning ablation (paper §3.1 and [10]).
	Pin *PinConfig
	// Fault, when non-nil, injects deterministic wire hazards
	// (drop/corrupt/duplicate/delay, NIC stalls) keyed by Seed, and
	// implies the reliable-delivery layer. Nil keeps the perfectly
	// reliable wire with zero added events.
	Fault *fault.Config
	// Rel overrides the reliable-delivery parameters (retransmit
	// timeout, retry budget, framing overhead). Setting it enables the
	// layer even with Fault nil — the zero-loss reliability overhead
	// experiment.
	Rel *transport.RelConfig
	// Coalesce, when non-nil, enables per-destination small-message
	// coalescing for the split-phase API: eager AMs and RDMA
	// descriptors issued through NbGet and NbAccumulate park
	// in a per-(src,dst) buffer and travel as one wire frame, flushed on
	// a size threshold, a virtual-time timer, or a SyncAll/fence. Nil (the
	// default) keeps every message individual and the event stream
	// bit-identical to a build without coalescing.
	Coalesce *transport.CoalConfig
	// Crash, when non-nil, schedules deterministic node crash/restart
	// events keyed by Seed and implies the reliable-delivery layer
	// (retransmits are what carry traffic across a restart window). Nil
	// keeps the crash machinery entirely out of the event stream.
	Crash *CrashConfig
	// Flight, when non-nil, attaches a flight recorder: a fixed-capacity
	// per-node ring of wire-level events (sends, drops, retransmits,
	// NACKs, crashes, ...). Recording is host-side only — it costs no
	// virtual time and leaves the event stream bit-identical. When
	// Flight.Dump is non-nil, a run that ends in a DeadlockError,
	// TransportError or CrashError automatically dumps the last
	// Flight.Tail events of every involved node to it as JSONL plus a
	// '#'-prefixed human-readable tail. Nil keeps the recorder (and its
	// per-site pointer checks' branches) entirely cold.
	Flight *flight.Config
}

// PinConfig overrides memory-registration behaviour.
type PinConfig struct {
	Policy mem.PinPolicy
	// MaxTotal and MaxPerObject override the profile's registration
	// limits when positive; negative removes the limit.
	MaxTotal     int
	MaxPerObject int
	// Evictor selects the PinLimited victim policy; the zero value is
	// the historical LRU, keeping default runs bit-identical.
	Evictor mem.EvictorKind
	// Lazy enables the lazy-unpin registration cache: Unpin parks
	// registrations in a bounded dead-list and a re-pin of a parked
	// region is a free reuse hit (mem.PinTable.SetLazyUnpin). Off keeps
	// eager dereg.
	Lazy bool
}

// pinTable builds node's pin table under the Pin override: the
// profile's registration cost model with the override's limits, its
// policy, evictor and unpin mode, recording to the machine's flight
// recorder fr.
func (c *Config) pinTable(node int, fr *flight.Recorder) *mem.PinTable {
	reg := c.Profile.Reg
	switch {
	case c.Pin.MaxTotal > 0:
		reg.MaxTotal = c.Pin.MaxTotal
	case c.Pin.MaxTotal < 0:
		reg.MaxTotal = 0
	}
	switch {
	case c.Pin.MaxPerObject > 0:
		reg.MaxPerObject = c.Pin.MaxPerObject
	case c.Pin.MaxPerObject < 0:
		reg.MaxPerObject = 0
	}
	pt := mem.NewPinTable(node, reg, c.Pin.Policy)
	pt.SetFlightRecorder(fr)
	pt.SetEvictor(c.Pin.Evictor.New(reg))
	pt.SetLazyUnpin(c.Pin.Lazy)
	return pt
}

// ThreadsPerNode reports the hybrid fan-out.
func (c *Config) ThreadsPerNode() int { return c.Threads / c.Nodes }

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.Profile == nil {
		return fmt.Errorf("core: config needs a transport profile")
	}
	if c.Nodes <= 0 || c.Threads <= 0 {
		return fmt.Errorf("core: need positive threads (%d) and nodes (%d)", c.Threads, c.Nodes)
	}
	if c.Threads%c.Nodes != 0 {
		return fmt.Errorf("core: threads (%d) must be a multiple of nodes (%d)", c.Threads, c.Nodes)
	}
	if c.Crash != nil {
		if err := c.Crash.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// putCacheEnabled resolves the effective PUT-caching choice.
func (c *Config) putCacheEnabled() bool {
	if !c.Cache.Enabled {
		return false
	}
	return c.Cache.PutMode == PutCacheOn || c.Profile.PutCacheEnabled
}
