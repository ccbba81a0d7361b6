package core

import (
	"errors"
	"fmt"
	"io"
	"strconv"

	"xlupc/internal/addrcache"
	"xlupc/internal/fault"
	"xlupc/internal/flight"
	"xlupc/internal/mem"
	"xlupc/internal/sim"
	"xlupc/internal/svd"
	"xlupc/internal/telemetry"
	"xlupc/internal/transport"
)

// Active-message handler ids used by the runtime's protocols. The blank
// ones belonged to protocols that are gone; the others keep their
// numbers.
const (
	hGetReq transport.HandlerID = iota + 1
	hPutReq
	hRTS // rendezvous request-to-send, for a GET or a PUT
	_
	hFreeReq
	hBarrier
	_
	_
	hColl
	hAtomic
	hUserReq // user-level AM request (useram.go)
	hReply   // the answer to any of the above that has one (getput.go)
)

// Runtime is one simulated execution of a UPC program: a kernel, a
// machine, the per-node runtime state, and the UPC threads.
type Runtime struct {
	cfg     Config
	K       *sim.Kernel
	M       *transport.Machine
	tel     *telemetry.Telemetry // nil when telemetry is off
	nodes   []*nodeState
	threads []*Thread

	putCache bool // effective PUT-caching decision
	ran      bool

	// userHandlers is the user-level AM dispatch table (useram.go).
	userHandlers [maxUserHandlers]UserHandler

	// hdr recycles protocol headers and bounce buffers (headers.go).
	hdr headers

	// runLocal holds run-scoped host-side singletons (see RunLocal).
	runLocal map[string]any

	// Crash orchestration (all zero-valued when cfg.Crash is nil).
	crashTimers      []*sim.Timer // pending scheduled crashes
	liveBodies       int          // program threads still running
	crashErr         error        // first CrashFail abort
	staleInvalidated int64        // cache entries flushed by stale-NACK recovery

	// Counts that no lower layer keeps, each indexed by its label and
	// written once where it happens: rendezvous transfers whose target
	// refused the pin (they went eager), and remote atomics issued, by op.
	pinRefused [2]int64 // refusedGet, refusedPut
	atomicOps  [transport.AtomicAccumulate + 1]int64
}

// pinRefused indices.
const (
	refusedGet = iota
	refusedPut
)

// nodeState is the per-node runtime state layered over the transport
// node: the SVD replica, the remote address cache, barrier and
// collective bookkeeping.
type nodeState struct {
	rt    *Runtime
	id    int
	tn    *transport.Node
	dir   *svd.Directory
	cache *addrcache.Cache

	barrier *nodeBarrier
	coll    *collState

	// collective carries the node representative's result (e.g. the
	// freshly allocated array) to the node's other threads across the
	// closing barrier of a collective operation; alloc is what the
	// representative is allocating until then.
	collective any
	alloc      allocReq

	// user holds node-scoped singletons of user-level protocols
	// (per-node locks, counters); see nodeLocal in useram.go.
	user map[string]any

	// ctxs holds the handler state of each of the node's AM dispatcher
	// contexts (see serve).
	ctxs []amCtx
}

// NewRuntime builds the simulated cluster for cfg.
func NewRuntime(cfg Config) (*Runtime, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	k := sim.NewKernel()
	m := transport.NewMachine(k, cfg.Profile, cfg.Nodes)
	if cfg.Pin != nil {
		for i, nd := range m.Nodes {
			nd.Pins = cfg.pinTable(i, m.FR)
		}
	}
	if cfg.Fault != nil || cfg.Rel != nil || cfg.Crash != nil {
		rc := transport.DefaultRelConfig()
		if cfg.Rel != nil {
			rc = *cfg.Rel
		}
		var inj *fault.Injector
		if cfg.Fault != nil {
			inj = fault.New(cfg.Seed, *cfg.Fault)
		}
		m.EnableChaos(inj, rc)
	}
	if cfg.Coalesce != nil {
		m.EnableCoalescing()
	}
	rt := &Runtime{cfg: cfg, K: k, M: m, tel: cfg.Telemetry, putCache: cfg.putCacheEnabled()}
	if cfg.Flight != nil {
		m.FR.AddRings(cfg.Flight.EffPerNode())
	}
	rt.nodes = make([]*nodeState, cfg.Nodes)
	nctx := m.AMContexts()
	ctxs := make([]amCtx, cfg.Nodes*nctx)
	for i := 0; i < cfg.Nodes; i++ {
		ns := &nodeState{
			rt:   rt,
			id:   i,
			tn:   m.Nodes[i],
			dir:  svd.NewDirectory(i, cfg.Threads),
			ctxs: ctxs[i*nctx : (i+1)*nctx : (i+1)*nctx],
		}
		for c := range ns.ctxs {
			x := &ns.ctxs[c]
			x.rt, x.ns, x.user.x = rt, ns, x
		}
		if cfg.Cache.Enabled {
			if cfg.Cache.Adaptive != nil {
				ns.cache = addrcache.NewAdaptive(*cfg.Cache.Adaptive)
			} else {
				ns.cache = addrcache.New(cfg.Cache.Capacity, addrcache.LRU, 0)
			}
		}
		ns.barrier = newNodeBarrier(rt, ns)
		ns.coll = &collState{mail: newMailbox[collKey, *collMsg]()}
		rt.nodes[i] = ns
	}
	rt.registerHandlers()
	rt.scheduleCrashes()
	rt.threads = newThreads(rt)
	return rt, nil
}

// Config returns the runtime's configuration.
func (rt *Runtime) Config() Config { return rt.cfg }

// nodeOfThread maps a UPC thread id to its node.
func (rt *Runtime) nodeOfThread(t int) *nodeState {
	return rt.nodes[t/rt.cfg.ThreadsPerNode()]
}

// Run executes body once per UPC thread (SPMD), driving the simulation
// to completion, and returns the run's statistics. Each thread is a
// coroutine of the kernel, so the body uses arbitrary Go control flow
// and the blocking methods. It receives the Thread it runs as; thread 0
// is the UPC "main" thread by convention. Run may be called once per
// Runtime.
func (rt *Runtime) Run(body func(t *Thread)) (RunStats, error) {
	if rt.ran {
		return RunStats{}, fmt.Errorf("core: Runtime.Run called twice; build a fresh Runtime per run")
	}
	rt.ran = true
	// Whatever way the run ends other than cleanly — Stop, an event
	// limit, a deadlock error, or a panic unwinding through Run —
	// stranded program threads are still parked on their goroutines.
	// Release them so repeated simulations (sweeps, benchmarks) do not
	// accumulate goroutines.
	defer rt.K.Shutdown()
	rt.liveBodies = len(rt.threads)
	for _, th := range rt.threads {
		th := th
		rt.K.SpawnIdx("upc", th.id, func(p *sim.Proc) {
			th.p, th.c = p, p.Cont()
			body(th)
			th.Fence() // drain outstanding PUTs before exiting
			rt.bodyDone()
		})
	}
	return rt.finishRun(rt.K.Run())
}

// ContBody is a continuation-mode program body: invoked once per UPC
// thread, written in continuation-passing style against the Thread's
// ...C methods, calling done exactly once when the thread's program is
// complete.
type ContBody func(t *Thread, done func())

// RunCont executes body once per UPC thread as continuation
// state-machines on the event heap — no goroutines, no channels, no
// per-thread stacks — driving the simulation to completion. It is the
// execution mode that makes 100k-thread sweeps feasible; bodies that
// need arbitrary Go control flow use Run instead; a blocking method
// called from a RunCont body panics. Both run the same implementation
// of every operation and produce bit-identical RunStats for the same
// program. RunCont may be called once per Runtime.
func (rt *Runtime) RunCont(body ContBody) (RunStats, error) {
	if rt.ran {
		return RunStats{}, fmt.Errorf("core: Runtime.RunCont called twice; build a fresh Runtime per run")
	}
	rt.ran = true
	defer rt.K.Shutdown()
	rt.liveBodies = len(rt.threads)
	for _, th := range rt.threads {
		th := th
		rt.K.SpawnCIdx("upc", th.id, func(c *sim.Cont) {
			th.c = c
			body(th, func() {
				th.FenceC(func() { // drain outstanding PUTs before exiting
					c.Finish()
					rt.bodyDone()
				})
			})
		})
	}
	return rt.finishRun(rt.K.Run())
}

// bodyDone accounts one finished program thread; the last one cancels
// crash timers scheduled beyond the program's natural end — they would
// advance the clock (inflating the makespan) and mutate state nothing
// will observe.
func (rt *Runtime) bodyDone() {
	rt.liveBodies--
	if rt.liveBodies == 0 {
		rt.cancelCrashTimers()
	}
}

// finishRun is the common epilogue of Run and RunCont: fold in the
// typed transport and crash failures and trigger the flight post-mortem.
func (rt *Runtime) finishRun(err error) (RunStats, error) {
	// A packet that exhausted its retry budget stopped the kernel; the
	// typed failure outranks whatever secondary state Run reported, and
	// the deferred Shutdown unwinds the stranded processes — a clean
	// abort instead of a deadlock. A CrashFail abort outranks both: the
	// stale operation is the root cause of anything downstream.
	if te := rt.M.FatalError(); te != nil {
		err = te
	}
	if rt.crashErr != nil {
		err = rt.crashErr
	}
	if err != nil && rt.cfg.Flight != nil && rt.cfg.Flight.Dump != nil {
		// Best-effort post-mortem: a broken dump sink must not mask the
		// run's real failure.
		_ = rt.WriteFlightDump(rt.cfg.Flight.Dump, err)
	}
	return rt.stats(), err
}

// CacheHighWater reports the most entries any node's address cache ever
// held (addrcache.Cache.HighWater), 0 with the cache off.
func (rt *Runtime) CacheHighWater() int {
	high := 0
	for _, ns := range rt.nodes {
		if ns.cache != nil {
			high = max(high, ns.cache.HighWater())
		}
	}
	return high
}

// FlightRecorder returns the run's flight recorder: its counts always,
// its rings when Config.Flight asked for them.
func (rt *Runtime) FlightRecorder() *flight.Recorder { return rt.M.FR }

// flightNodes extracts the nodes a failure involves: a TransportError
// names its dead channel's endpoints, a CrashError the crashed target.
// Anything else (a DeadlockError, a checksum divergence, an unknown
// error) implicates every node.
func (rt *Runtime) flightNodes(cause error) []int {
	var te *transport.TransportError
	if errors.As(cause, &te) {
		return []int{te.Src, te.Dst}
	}
	var ce *CrashError
	if errors.As(cause, &ce) {
		return []int{ce.Node}
	}
	return nil // all nodes
}

// WriteFlightDump writes the flight recorder's failure dump for cause
// to w: the last Flight.Tail events of every involved node, as JSONL
// records followed by a '#'-prefixed human-readable tail interleaved by
// virtual time. A nil cause (an on-demand capture) dumps every node.
// No-op when the recorder has no rings.
func (rt *Runtime) WriteFlightDump(w io.Writer, cause error) error {
	if !rt.M.FR.HasRings() {
		return nil
	}
	if cause != nil {
		if _, err := fmt.Fprintf(w, "# flight dump: %v\n", cause); err != nil {
			return err
		}
	}
	return rt.M.FR.WriteDump(w, rt.flightNodes(cause), rt.cfg.Flight.EffTail())
}

// recordCacheInval flight-records an address-cache invalidation on node:
// rn is the remote node flushed (-1 for a handle-scoped invalidation on
// free), key the epoch or handle key, n the entries dropped.
func (rt *Runtime) recordCacheInval(node, rn int, key uint64, n int) {
	rt.M.FR.Record(node, flight.Event{
		T: rt.K.Now(), Kind: flight.KindCacheInval,
		Src: int32(node), Dst: int32(rn), Seq: key, Arg: int64(n),
	})
}

// RunStats aggregates a finished run. Every count is declared once:
// in the struct of the subsystem that keeps it, summed over nodes and
// threads, or — for an occurrence that has a flight Kind — as that
// kind's flight-record total.
type RunStats struct {
	Elapsed sim.Time // virtual makespan of the program

	// KernelEvents is the number of simulation events the kernel
	// processed — a deterministic function of the run, and the
	// denominator-independent half of the host events/second figure.
	KernelEvents int64

	// Traffic.
	Messages  int64
	NetBytes  int64
	AMOps     int64
	RDMAOps   int64
	RDMANacks int64 // RDMA operations NACKed by a deregistered or restarted target

	Cache        addrcache.Stats     // summed over nodes
	mem.PinStats                     // summed over nodes; MaxLive is the fullest table's peak
	OpStats                          // summed over threads
	Coal         transport.CoalStats // all zero when Coalesce is nil

	// Flight is the flight record's count of each kind, over all nodes
	// and classes: hazards applied (st.Flight[flight.KindDrop]), the
	// reliable layer's work, crashes and restarts, coalesced frames,
	// pin evictions, parks and reuses.
	Flight flight.Totals

	RecoveryTime     sim.Time // summed over restarts: first inbound RDMA op minus BackAt
	StaleInvalidated int64    // cache entries flushed by stale-NACK recovery
}

// OpStats is what a thread counts of its own operations.
type OpStats struct {
	Gets, Puts   int64    // remote GETs and PUTs retired
	LocalGets    int64    // GETs served from the thread's own node
	GetTime      sim.Time // initiator time blocked in remote GETs
	AtomicOps    int64    // remote atomic operations (NIC or AM path)
	LocalAtomics int64    // home-node atomic fast-path operations
	AtomicTime   sim.Time // initiator time blocked in remote atomics
}

// Add accumulates another thread's counts into s.
func (s *OpStats) Add(o OpStats) {
	s.Gets += o.Gets
	s.Puts += o.Puts
	s.LocalGets += o.LocalGets
	s.GetTime += o.GetTime
	s.AtomicOps += o.AtomicOps
	s.LocalAtomics += o.LocalAtomics
	s.AtomicTime += o.AtomicTime
}

func (rt *Runtime) stats() RunStats {
	st := RunStats{
		Elapsed: rt.K.Now(), KernelEvents: rt.K.Events(),
		Messages: rt.M.Fab.Messages(), NetBytes: rt.M.Fab.Bytes(),
		AMOps: rt.M.AMCount(), RDMAOps: rt.M.RDMACount(), RDMANacks: rt.M.NackCount(),
		Coal: rt.M.CoalStats(), Flight: rt.M.FR.Totals(),
		RecoveryTime: rt.M.RecoveryTime(), StaleInvalidated: rt.staleInvalidated,
	}
	for _, ns := range rt.nodes {
		if ns.cache != nil {
			st.Cache.Add(ns.cache.Stats())
		}
		st.PinStats.Add(ns.tn.Pins.PinStats)
	}
	for _, th := range rt.threads {
		st.OpStats.Add(th.ops)
	}
	if rt.tel != nil {
		rt.tel.Publish(rt.metricsTable(st))
	}
	return st
}

// A kindFamily exports one flight kind's total as an unlabelled
// counter. Each layer's one-kind families sit in one list, which
// metricsTable exports beside the layer's other lines.
type kindFamily struct {
	name string
	kind flight.Kind
}

var (
	chaosFamilies = []kindFamily{
		{"xlupc_fault_drops_total", flight.KindDrop},
		{"xlupc_fault_corrupts_total", flight.KindCorrupt},
		{"xlupc_fault_dups_total", flight.KindDuplicate},
		{"xlupc_fault_delays_total", flight.KindDelay},
		{"xlupc_fault_stalls_total", flight.KindStall},
		{"xlupc_rel_retransmits_total", flight.KindRetransmit},
		{"xlupc_rel_dup_suppressed_total", flight.KindDupSuppress},
		{"xlupc_rel_acks_total", flight.KindAck},
	}
	crashFamilies = []kindFamily{
		{"xlupc_crash_nodes_total", flight.KindCrash},
		{"xlupc_crash_drops_total", flight.KindCrashDrop},
		{"xlupc_crash_stale_nacks_total", flight.KindStaleNack},
		{"xlupc_crash_parked_retx_total", flight.KindPark},
		{"xlupc_crash_recovered_total", flight.KindRestart},
	}
	pinExtraFamilies = []kindFamily{
		{"xlupc_pin_reuses_total", flight.KindPinReuse},
		{"xlupc_pin_parked_total", flight.KindPinPark},
	}
)

// metricsTable renders the run's end-state as the telemetry hub's
// end-of-run table: the RunStats structs, the flight record's counts by
// class and node, the transport's counts by opcode and flush trigger,
// core's own by label, each node's cache and pin table, resource
// utilization, queue depths. Nothing writes a metric during a run: this
// is where counts become series, once, when the run has ended. A
// labelled series exists exactly when its count is positive.
func (rt *Runtime) metricsTable(st RunStats) []telemetry.Row {
	var rows []telemetry.Row
	counter := func(name, labels string, n int64) {
		rows = append(rows, telemetry.Row{Name: name, Labels: labels, Kind: telemetry.KindCounter, Value: float64(n)})
	}
	gauge := func(name, labels string, v float64) {
		rows = append(rows, telemetry.Row{Name: name, Labels: labels, Kind: telemetry.KindGauge, Value: v})
	}
	gauge("xlupc_run_elapsed_seconds", "", st.Elapsed.Secs())
	counter("xlupc_net_messages_total", "", st.Messages)
	counter("xlupc_net_bytes_total", "", st.NetBytes)
	counter("xlupc_am_ops_total", "", st.AMOps)
	counter("xlupc_rdma_ops_total", "", st.RDMAOps)
	kindCounters := func(fams []kindFamily) {
		for _, f := range fams {
			counter(f.name, "", st.Flight[f.kind])
		}
	}
	// Fault and reliability metrics only exist when chaos is configured,
	// keeping exporter output bit-identical to main when it is off.
	if rt.cfg.Fault != nil || rt.cfg.Rel != nil {
		kindCounters(chaosFamilies)
	}
	// These three exist exactly when something was counted, as the live
	// counters they replace did.
	positive := func(name string, n int64) {
		if n > 0 {
			counter(name, "", n)
		}
	}
	positive("xlupc_transport_corrupt_drops_total", st.Flight[flight.KindCorruptDrop])
	positive("xlupc_coalesce_msgs_total", st.Coal.Msgs)
	positive("xlupc_coalesce_frames_total", st.Flight[flight.KindCoalFlush])
	// Crash metrics likewise only exist when a crash schedule is
	// configured, so exporter output with Crash nil stays identical.
	if rt.cfg.Crash != nil {
		kindCounters(crashFamilies)
		counter("xlupc_crash_stale_invalidated_total", "", st.StaleInvalidated)
		gauge("xlupc_crash_recovery_seconds", "", st.RecoveryTime.Secs())
	}
	// Lazy-unpin and evictor extras only exist when the Pin config opts
	// into them, so exporter output for default-policy runs stays
	// identical.
	if rt.cfg.Pin != nil && (rt.cfg.Pin.Lazy || rt.cfg.Pin.Evictor != mem.EvictLRU) {
		kindCounters(pinExtraFamilies)
		counter("xlupc_pin_reclaims_total", "", st.Reclaims)
		counter("xlupc_pin_ghost_hits_total", "", st.GhostHits)
		counter("xlupc_pin_repins_total", "", st.Repins)
	}
	// Adaptive cache re-apportionments likewise appear only when the
	// cache runs in adaptive mode.
	if rt.cfg.Cache.Adaptive != nil {
		counter("xlupc_addrcache_resizes_total", "", st.Cache.Resizes)
	}
	// The header bytes coalescing kept off the wire: a gauge, because a
	// one-message frame saves a negative amount (its sub-header) and the
	// run's total moves both ways.
	if rt.cfg.Coalesce != nil {
		gauge("xlupc_coalesce_saved_bytes", "", float64(st.Coal.SavedBytes))
	}
	addPositive := func(name, key, value string, n int64) {
		if n > 0 {
			counter(name, key+`="`+value+`"`, n)
		}
	}
	fr := rt.M.FR
	for _, c := range []flight.Class{flight.ClassAM, flight.ClassDMA} {
		addPositive("xlupc_transport_parked_total", "class", c.String(), fr.OfClass(flight.KindPark, c))
		addPositive("xlupc_transport_failures_total", "class", c.String(), fr.OfClass(flight.KindRetryFail, c))
		addPositive("xlupc_transport_retransmits_total", "class", c.String(), fr.OfClass(flight.KindRetransmit, c))
		addPositive("xlupc_transport_dup_suppressed_total", "class", c.String(), fr.OfClass(flight.KindDupSuppress, c))
	}
	rt.M.NacksByOp(func(op string, nacks, stale int64) {
		addPositive("xlupc_rdma_nacks_total", "op", op, nacks)
		addPositive("xlupc_stale_nacks_total", "op", op, stale)
		// Every NACKed operation went on over the active-message path —
		// a GET or atomic falls back, a PUT is retried — a stale one
		// after flushing what the node cached for its target (unless a
		// CrashFail run stopped there). A read's or atomic's NACKs count
		// as its initiator observes them, stale ones included; a PUT's
		// plain ones count at the target.
		family, plain := "xlupc_"+op+"_fallbacks_total", nacks-stale
		if op == "put" {
			family, plain = "xlupc_put_retries_total", nacks
		}
		addPositive(family, "reason", "nack", plain)
		addPositive(family, "reason", "stale_epoch", stale)
		addPositive("xlupc_stale_recoveries_total", "op", op, stale)
	})
	addPositive("xlupc_get_fallbacks_total", "reason", "pin_refused", rt.pinRefused[refusedGet])
	addPositive("xlupc_put_fallbacks_total", "reason", "pin_refused", rt.pinRefused[refusedPut])
	rt.M.FlushesByReason(func(reason string, n int64) {
		addPositive("xlupc_coalesce_flushes_total", "reason", reason, n)
	})
	for _, op := range []transport.AtomicOp{transport.AtomicFetchAdd, transport.AtomicAccumulate} {
		addPositive("xlupc_atomic_ops_total", "op", op.String(), rt.atomicOps[op])
	}
	// Atomic aggregates likewise only exist once an atomic was issued,
	// so exporter output for atomic-free runs stays identical.
	if st.AtomicOps+st.LocalAtomics > 0 {
		counter("xlupc_atomic_remote_total", "", st.AtomicOps)
		counter("xlupc_atomic_local_total", "", st.LocalAtomics)
		gauge("xlupc_atomic_blocked_seconds", "", st.AtomicTime.Secs())
	}
	for _, ns := range rt.nodes {
		addPositive("xlupc_crash_total", "node", strconv.Itoa(ns.id), fr.OfNode(ns.id, flight.KindCrash))
		node := `node="` + strconv.Itoa(ns.id) + `"`
		if ns.cache != nil {
			cs := ns.cache.Stats()
			counter("xlupc_addrcache_hits_total", node, cs.Hits)
			counter("xlupc_addrcache_misses_total", node, cs.Misses)
			counter("xlupc_addrcache_inserts_total", node, cs.Inserts)
			counter("xlupc_addrcache_evictions_total", node, cs.Evictions)
			counter("xlupc_addrcache_invalidations_total", node, cs.Invalidations)
			gauge("xlupc_addrcache_hit_rate", node, cs.HitRate())
			gauge("xlupc_addrcache_entries", node, float64(ns.cache.Len()))
		}
		pins := ns.tn.Pins
		counter("xlupc_pin_registrations_total", node, pins.Pins)
		counter("xlupc_pin_deregistrations_total", node, pins.Unpins)
		counter("xlupc_pin_evictions_total", node, fr.OfNode(ns.id, flight.KindPinEvict))
		gauge("xlupc_pin_peak_entries", node, float64(pins.MaxLive))
		gauge("xlupc_pin_reg_seconds", node, pins.RegTime.Secs())
		gauge("xlupc_pin_dereg_seconds", node, pins.DeregTime.Secs())
		// Resource utilization: the CPU pool, the AM-handler resource
		// (the CPU itself on non-overlapping transports) and the NIC
		// injection port. Busy and queue-wait integrals answer "which
		// engine was the bottleneck".
		resources := []*sim.Resource{ns.tn.CPU, rt.M.Fab.Port(ns.id).TX}
		if ns.tn.Comm != ns.tn.CPU {
			resources = append(resources, ns.tn.Comm)
		}
		for _, r := range resources {
			labels := node + `,resource="` + r.Name() + `"`
			rs := r.Stats()
			counter("xlupc_resource_acquires_total", labels, rs.Acquires)
			gauge("xlupc_resource_busy_seconds", labels, rs.BusyTime.Secs())
			gauge("xlupc_resource_wait_seconds", labels, rs.TotalWait.Secs())
		}
		port := rt.M.Fab.Port(ns.id)
		for _, q := range []struct {
			name string
			p    int64
			m    int
		}{
			{"am", port.AM.Pushes(), port.AM.MaxLen()},
			{"dma", port.DMA.Pushes(), port.DMA.MaxLen()},
		} {
			labels := node + `,queue="` + q.name + `"`
			counter("xlupc_queue_pushes_total", labels, q.p)
			gauge("xlupc_queue_max_depth", labels, float64(q.m))
		}
	}
	return rows
}

func (rt *Runtime) registerHandlers() {
	rt.M.Handle(hGetReq, rt.handleGetReq)
	rt.M.Handle(hPutReq, rt.handlePutReq)
	rt.M.Handle(hRTS, rt.handleRTS)
	rt.M.Handle(hFreeReq, rt.handleFreeReq)
	rt.M.Handle(hBarrier, rt.handleBarrier)
	rt.M.Handle(hColl, rt.handleColl)
	rt.M.Handle(hAtomic, rt.handleAtomic)
	rt.M.Handle(hUserReq, rt.handleUserReq)
	rt.M.Handle(hReply, rt.handleReply)
}

// RunLocal returns the run-scoped host-side singleton under key,
// building it on first use — shared pre-computation (e.g. a partition
// of a key space) that every thread would otherwise redo. Host-side
// only: building costs no virtual time, so anything with simulated
// cost belongs in the threads, not here. Race-free by construction:
// the kernel runs one process at a time.
func (rt *Runtime) RunLocal(key string, build func() any) any {
	if rt.runLocal == nil {
		rt.runLocal = make(map[string]any)
	}
	v, ok := rt.runLocal[key]
	if !ok {
		v = build()
		rt.runLocal[key] = v
	}
	return v
}

// --- Target side ---------------------------------------------------------

// amCtx is what one AM dispatcher context of a node has in progress.
// Every handler is a ladder of steps on the context's continuation,
// like a thread's operations on its own (see Thread): the handle method
// starts it, each later step runs from the kernel event that ends a
// wait, and the last one runs the dispatcher's then. A context serves
// one message at a time, so the ladder's state lives here, in a record
// built once per context, rather than in a closure per message.
type amCtx struct {
	rt   *Runtime
	ns   *nodeState
	ct   *sim.Cont
	msg  *transport.Msg
	then func() // the dispatcher's: the handler is done

	// translate: what it was asked, where the handler goes on, and what
	// it found.
	h     svd.Handle
	want  bool
	next  int
	cb    *svd.ControlBlock
	base  mem.Addr
	epoch uint32

	t0 sim.Time
	pi int // insertPiggyback: the pair whose insert cost is paid (-1: the replier's own)

	drop dropOp // handleFreeReq's local part of the free

	// The user AM being served: the context its handler runs in, the
	// reply continuation it is given (bound at the context's first user
	// AM) and the payload it replied with.
	user      UserCtx
	userReply func(payload []byte)
	payload   []byte
}

// Step numbers of the handlers' ladders (see amSteps).
const (
	hcResolved = iota
	hcPinned
	hcGetTranslated
	hcGetCopied
	hcPutTranslated
	hcPutCopied
	hcRTSTranslated
	hcAtomicTranslated
	hcAtomicApplied
	hcUserTranslated
	hcUserRead
	hcUserWritten
	hcUserCopied
	hcReplyCopied
	hcFill
	hcReplyFilled
	hcFreeDropped

	numAMSteps
)

// amSteps maps a step number to the method that runs it. (Filled in by
// init because the methods refer back to it.)
var amSteps [numAMSteps]func(*amCtx)

func init() {
	amSteps = [numAMSteps]func(*amCtx){
		hcResolved:         (*amCtx).resolved,
		hcPinned:           (*amCtx).pinned,
		hcGetTranslated:    (*amCtx).getTranslated,
		hcGetCopied:        (*amCtx).getCopied,
		hcPutTranslated:    (*amCtx).putTranslated,
		hcPutCopied:        (*amCtx).putCopied,
		hcRTSTranslated:    (*amCtx).rtsTranslated,
		hcAtomicTranslated: (*amCtx).atomicTranslated,
		hcAtomicApplied:    (*amCtx).atomicApplied,
		hcUserTranslated:   (*amCtx).userTranslated,
		hcUserRead:         (*amCtx).userRead,
		hcUserWritten:      (*amCtx).userWritten,
		hcUserCopied:       (*amCtx).userCopied,
		hcReplyCopied:      (*amCtx).replyCopied,
		hcFill:             (*amCtx).insertPiggyback,
		hcReplyFilled:      (*amCtx).replyFilled,
		hcFreeDropped:      (*amCtx).freeDropped,
	}
}

// Step runs step pc of the handler in progress (sim.Stepper).
func (x *amCtx) Step(pc int) { amSteps[pc](x) }

// park parks step pc beneath whatever the handler starts next.
func (x *amCtx) park(pc int) { x.ct.Park(x, pc) }

// after parks step pc and returns the func that runs it, to hand to the
// primitive the handler is about to wait in.
func (x *amCtx) after(pc int) func() { return x.ct.Then(x, pc) }

// serve returns the record of the dispatcher context ct of node n, set
// to serve msg and run then when done. A node has a record per context
// (one on GM, four at most), built with the runtime; a context claims
// the first free one with the first message it serves.
func (rt *Runtime) serve(ct *sim.Cont, n *transport.Node, msg *transport.Msg, then func()) *amCtx {
	ctxs := rt.nodes[n.ID].ctxs
	i := 0
	for ctxs[i].ct != ct && ctxs[i].ct != nil {
		i++
	}
	x := &ctxs[i]
	x.ct, x.msg, x.then = ct, msg, then
	return x
}

// translate is the target-side preamble of every request that names a
// shared object: resolve handle h in the SVD and, when the initiator
// wants the address, pin the chunk and leave the (base, epoch) pair to
// piggyback on the reply in x; then the handler goes on at step next.
func (x *amCtx) translate(h svd.Handle, want bool, next int) {
	x.h, x.want, x.next, x.t0 = h, want, next, x.rt.K.Now()
	x.ct.Sleep(x.rt.cfg.Profile.SVDLookupCost, x.after(hcResolved))
}

// resolved looks the handle up once the lookup cost is paid. Every
// allocation is collective, so every node knows every object a request
// can name: an unknown handle is a protocol bug.
func (x *amCtx) resolved() {
	ns := x.ns
	cb, ok := ns.dir.LookupAny(x.h)
	if !ok {
		panic(fmt.Sprintf("core: node %d: remote access to unknown object %v", ns.id, x.h))
	}
	if cb.Freed {
		panic(fmt.Sprintf("core: node %d: remote access to freed object %v (%s)", ns.id, x.h, cb.Name))
	}
	x.cb = cb
	x.msg.Span.Phase(telemetry.PhaseSVDResolve, x.t0, x.rt.K.Now())
	x.base, x.epoch = 0, 0
	if !x.want {
		x.Step(x.next)
		return
	}
	x.t0 = x.rt.K.Now()
	x.pinChunk()
}

// pinChunk applies the greedy pin-everything policy on first remote
// access: the whole local chunk of the object is registered at once,
// and (base, epoch) — base 0 if pinning failed (registration limits) —
// is what the reply advertises. The registration cost is charged to the
// dispatcher (the target CPU on non-overlapping transports).
func (x *amCtx) pinChunk() {
	ns, cb := x.ns, x.cb
	if !cb.HasLocal {
		panic(fmt.Sprintf("core: node %d asked to pin %v, which it does not own", ns.id, cb.Handle))
	}
	cost, err := ns.tn.Pins.Pin(cb.LocalBase, cb.LocalSize, cb.Handle.Key(), x.rt.K.Now())
	// Capture the advertised pair before sleeping the registration cost:
	// a crash mid-sleep relocates the chunk and bumps the epoch together,
	// so the initiator receives a coherent stale (base, epoch) — which
	// heals through a clean stale-NACK — never a fresh base under an old
	// epoch or vice versa.
	x.base, x.epoch = cb.LocalBase, ns.tn.Epoch
	if err != nil {
		x.base = 0
	}
	x.ct.Sleep(cost, x.after(hcPinned))
}

func (x *amCtx) pinned() {
	x.msg.Span.Phase(telemetry.PhaseRegistration, x.t0, x.rt.K.Now())
	x.Step(x.next)
}

// answer replies to the request x is serving, as the handler's last
// act: rep, in a pooled header, joins the pairs of the request's frame
// (pairsFor) and travels with payload and extra wire bytes of its own
// plus those of the addresses it carries. The caller has read its
// request header for the last time and put it back.
func (x *amCtx) answer(rep reply, payload []byte, extra int) {
	msg := x.msg
	pairs, piggyback := pairsFor(msg, rep.H, rep.Base, rep.Epoch)
	rep.Pairs = pairs
	x.rt.M.ReplyToSpanC(x.ct, msg, hReply, x.rt.newReply(rep), payload, extra+piggyback, msg.Span, x.then)
}
