package core

import (
	"fmt"

	"xlupc/internal/fault"
	"xlupc/internal/mem"
	"xlupc/internal/sim"
)

// CrashMode selects what happens when an operation discovers its target
// crashed (a stale-epoch NACK at the initiator).
type CrashMode int

const (
	// CrashTransparent (the default) heals transparently: every cached
	// address for the restarted node is invalidated and the operation
	// retries over the active-message path, whose reply re-piggybacks
	// the fresh base. The program never observes the crash.
	CrashTransparent CrashMode = iota
	// CrashFail aborts the run with a *CrashError at the first stale
	// operation — the mode for programs that prefer fail-stop semantics
	// over transparent recovery.
	CrashFail
)

// CrashConfig schedules node crash/restart faults for a run: the
// embedded fault schedule parameters plus the runtime's recovery mode.
type CrashConfig struct {
	fault.CrashConfig
	Mode CrashMode
}

// CrashError is the typed failure surfaced under CrashFail: one
// operation targeted a node incarnation that no longer exists.
type CrashError struct {
	Node  int      // the crashed target
	Epoch uint32   // the target's current incarnation
	Op    string   // "get" or "put"
	At    sim.Time // virtual time the staleness was observed
}

func (e *CrashError) Error() string {
	return fmt.Sprintf("core: %s targeted node %d which crashed (now incarnation %d) at %v",
		e.Op, e.Node, e.Epoch, e.At)
}

// scheduleCrashes arms one cancellable timer per scheduled crash event.
// The timers are cancelled when the last program thread finishes, so a
// short run is not held open (nor its makespan inflated) by crash
// events beyond its natural end.
func (rt *Runtime) scheduleCrashes() {
	cc := rt.cfg.Crash
	if cc == nil || !cc.Active() {
		return
	}
	for _, ev := range fault.CrashSchedule(rt.cfg.Seed, cc.CrashConfig, rt.cfg.Nodes) {
		ev := ev
		rt.crashTimers = append(rt.crashTimers, rt.K.AfterTimer(ev.At, func() {
			rt.crashNode(ev)
		}))
	}
}

func (rt *Runtime) cancelCrashTimers() {
	for _, tm := range rt.crashTimers {
		tm.Cancel()
	}
	rt.crashTimers = nil
}

// crashNode executes one scheduled failure. The transport takes the
// wire-visible part (epoch bump, NIC down window, reliable-layer peer
// reset); the runtime loses the node's NIC registration state and
// re-seeds its allocator. The simulated semantics are a warm restart:
// the program's data survives (restored from checkpoint at zero
// modelled cost), but the address-space layout does not — every local
// chunk is relocated into a fresh allocator seeded at a hash-derived
// origin, so no pre-crash address is ever reissued and a stale cached
// base provably misses. Updating LocalBase on the shared control blocks
// is the SVD home re-registration: the layout fields are universal and
// replicated, only the home node's base changes.
func (rt *Runtime) crashNode(ev fault.CrashEvent) {
	ns := rt.nodes[ev.Node]
	ep := rt.M.CrashNode(ev.Node, ev.BackAt)
	ns.tn.Pins.Reset()
	h := fault.Mix(uint64(rt.cfg.Seed), uint64(ev.Node), uint64(ep))
	origin := mem.Addr(mem.Align * (2 + h%62)) // never the original Align
	fresh := mem.NewSpaceAt(ns.id, origin)
	old := ns.tn.Mem
	for _, cb := range ns.dir.Locals() {
		if cb.LocalSize == 0 {
			continue
		}
		data := old.ReadAlloc(cb.LocalBase, cb.LocalSize)
		cb.LocalBase = fresh.Alloc(cb.LocalSize)
		fresh.Write(cb.LocalBase, data)
	}
	ns.tn.Mem = fresh
}

// staleAbort implements CrashFail: the first stale operation records a
// CrashError and stops the kernel. It reports whether the caller should
// abandon the operation instead of healing. Safe from both process and
// kernel-callback context.
func (rt *Runtime) staleAbort(node int, ep uint32, op string, at sim.Time) bool {
	if rt.cfg.Crash == nil || rt.cfg.Crash.Mode != CrashFail {
		return false
	}
	if rt.crashErr == nil {
		rt.crashErr = &CrashError{Node: node, Epoch: ep, Op: op, At: at}
		rt.K.Stop()
	}
	return true
}
