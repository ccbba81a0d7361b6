package transport

import (
	"fmt"
	"strconv"

	"xlupc/internal/fabric"
	"xlupc/internal/flight"
	"xlupc/internal/mem"
	"xlupc/internal/sim"
	"xlupc/internal/telemetry"
)

// HandlerID names an active-message header handler. The UPC runtime
// registers its protocol handlers (GET request, PUT request, allocation
// notification, …) under stable ids.
type HandlerID uint8

// Handler is a header handler executed by one of the target node's AM
// dispatcher contexts, as a ladder of steps on the context's
// continuation ct: it may sleep on ct to model cost, touch the node's
// memory and pin table, and send replies from ct, and it runs then as
// its last act. The base RecvOverhead has already been charged when it
// starts, and the context serves nothing else until then has run.
type Handler func(ct *sim.Cont, n *Node, m *Msg, then func())

// Msg is one active message.
type Msg struct {
	Src, Dst int
	Handler  HandlerID
	Meta     any    // protocol header (simulation passes pointers)
	Payload  []byte // data carried by eager transfers (may be nil)
	wire     int    // total wire size

	// Span is the telemetry span of the operation this message belongs
	// to, nil when telemetry is off or the message is uninstrumented
	// control traffic. It rides along so target-side layers attribute
	// their phases into the initiating operation. sent is the injection
	// time and arrived the physical delivery time: sent→arrived is pure
	// wire latency, while arrived→handler-start is the target being
	// busy (queue residency plus CPU acquisition).
	Span    *telemetry.Span
	sent    sim.Time
	arrived sim.Time

	// Batch is the per-frame scratch shared by every sub-message of one
	// coalesced frame (nil for individual messages); reply is the open
	// reply buffer while the message is served as part of a batch.
	Batch *BatchScratch
	reply *coalBuf
}

// Machine is a simulated cluster: fabric plus per-node software state
// and the engines that serve each node's NIC: AM dispatcher contexts and
// the DMA engine.
type Machine struct {
	K        *sim.Kernel
	Prof     *Profile
	Fab      *fabric.Fabric
	Nodes    []*Node
	handlers [256]Handler
	contexts int // AM dispatcher contexts per node

	amCount   int64 // active messages sent
	rdmaCount int64 // RDMA operations issued

	// nacks counts, by opcode, the RDMA operations NACKed at the target
	// as their initiators observe them, and staleNacks those the target
	// refused for a stale epoch.
	nacks, staleNacks [len(dmaLabel)]int64

	// rel is the reliable-delivery layer; nil (the default) keeps the
	// original fire-and-forget wire with zero added events.
	rel *reliability

	// coal is the per-destination message coalescer; nil (the default)
	// keeps every send individual and the event stream bit-identical to
	// a build without coalescing.
	coal *coalescer

	// crash is the crash/restart bookkeeping; nil (the default) means no
	// node ever crashes and every epoch check trivially passes.
	crash *crashState

	// FR is the fabric's flight recorder, which every layer of the
	// machine records into: its counts are the reliability, crash and
	// coalescing stats.
	FR *flight.Recorder

	// pool holds the descriptor free-lists (see pool.go).
	pool pools
}

// Node is one cluster node as the transport sees it.
type Node struct {
	ID   int
	M    *Machine
	Mem  *mem.Space
	Pins *mem.PinTable

	// Epoch is the node's incarnation number, bumped on every crash.
	// RDMA descriptors carry the epoch the initiator believes the target
	// is in; a mismatch at the target NACKs the operation, which is what
	// turns a silently stale cached address into a recoverable event.
	Epoch uint32

	// CPU is the pool of compute cores. Comm is the resource AM
	// handlers execute on: the same resource as CPU when the
	// transport has no computation/communication overlap (GM), a
	// dedicated engine otherwise (LAPI).
	CPU  *sim.Resource
	Comm *sim.Resource
}

// NewMachine builds a cluster of n nodes over the profile's topology
// and wire model and starts every node's engines.
func NewMachine(k *sim.Kernel, prof *Profile, n int) *Machine {
	m := &Machine{
		K:    k,
		Prof: prof,
		Fab:  fabric.New(k, prof.NewTopo(n), prof.Wire),
	}
	m.FR = m.Fab.Recorder()
	m.Nodes = make([]*Node, n)
	// Overlapping transports get one AM dispatcher per handler context;
	// non-overlapping ones a single dispatcher (GM progress is
	// single-threaded polling). Their name suffixes are shared by
	// every node.
	m.contexts = max(prof.CommCapacity, 1)
	disp := make([]string, m.contexts)
	for c := range disp {
		disp[c] = ".amdisp" + strconv.Itoa(c)
	}
	for i := 0; i < n; i++ {
		nd := &Node{
			ID:   i,
			M:    m,
			Mem:  mem.NewSpace(i),
			Pins: mem.NewPinTable(i, prof.Reg, prof.PinPolicy),
			CPU:  sim.NewResourceIdx(k, "node", i, ".cpu", prof.Cores),
		}
		nd.Pins.SetFlightRecorder(m.FR)
		if prof.PinEvictor != mem.EvictLRU {
			nd.Pins.SetEvictor(prof.PinEvictor.New(prof.Reg))
		}
		if prof.PinLazy {
			nd.Pins.SetLazyUnpin(true)
		}
		if prof.CommCapacity > 0 {
			nd.Comm = sim.NewResourceIdx(k, "node", i, ".comm", prof.CommCapacity)
		} else {
			nd.Comm = nd.CPU
		}
		m.Nodes[i] = nd
		m.startEngines(nd, disp)
	}
	return m
}

// AMContexts returns how many AM dispatcher contexts serve each node:
// how many handlers a node can have in progress at once.
func (m *Machine) AMContexts() int { return m.contexts }

// Handle registers the handler for id. Registration happens before the
// simulation starts; re-registration panics.
func (m *Machine) Handle(id HandlerID, h Handler) {
	if m.handlers[id] != nil {
		panic(fmt.Sprintf("transport: duplicate handler %d", id))
	}
	m.handlers[id] = h
}

// AMCount, RDMACount and NackCount report operation totals.
func (m *Machine) AMCount() int64   { return m.amCount }
func (m *Machine) RDMACount() int64 { return m.rdmaCount }
func (m *Machine) NackCount() int64 {
	var n int64
	for _, c := range m.nacks {
		n += c
	}
	return n
}

// NacksByOp calls each with every RDMA opcode's name, the NACKs its
// initiators observed and the stale-epoch NACKs its targets sent.
func (m *Machine) NacksByOp(each func(op string, nacks, stale int64)) {
	for k, op := range dmaLabel {
		each(op, m.nacks[k], m.staleNacks[k])
	}
}

// CrashStats counts crash/restart activity at the transport layer: a
// view over the flight record, but for the recovery time it sums.
type CrashStats struct {
	Crashes      int64    // nodes taken down
	StaleNacks   int64    // RDMA ops NACKed for a stale target epoch
	Recovered    int64    // restarts confirmed by a post-restart RDMA op
	RecoveryTime sim.Time // sum over Recovered of (first RDMA op) - BackAt
}

// crashState is the machine's crash bookkeeping, allocated on first
// CrashNode so crash-free runs carry a single nil check.
type crashState struct {
	// recovery maps a node still awaiting its first successful inbound
	// RDMA op since restart to its BackAt time.
	recovery     map[int]sim.Time
	recoveryTime sim.Time
}

// CrashStats reports crash activity (zero when no crash ever happened).
func (m *Machine) CrashStats() CrashStats {
	st := CrashStats{
		Crashes:    m.FR.Total(flight.KindCrash),
		StaleNacks: m.FR.Total(flight.KindStaleNack),
		Recovered:  m.FR.Total(flight.KindRestart),
	}
	if m.crash != nil {
		st.RecoveryTime = m.crash.recoveryTime
	}
	return st
}

// CrashNode takes node down at the current time until backAt: its
// incarnation epoch is bumped, its NIC drops arrivals until backAt, and
// the reliable layer (when present) resets the per-peer sequence state
// senders hold toward it. The caller (the runtime's crash orchestrator)
// is responsible for wiping the node's pin table and re-seeding its
// allocator — the transport only owns the wire-visible state. Returns
// the new epoch.
func (m *Machine) CrashNode(node int, backAt sim.Time) uint32 {
	if m.crash == nil {
		m.crash = &crashState{recovery: make(map[int]sim.Time)}
	}
	nd := m.Nodes[node]
	nd.Epoch++
	m.crash.recovery[node] = backAt
	m.Fab.SetDown(node, backAt)
	if m.rel != nil {
		m.rel.peerReset(node)
	}
	m.FR.Record(node, flight.Event{
		T: m.K.Now(), Kind: flight.KindCrash,
		Src: int32(node), Dst: -1, Seq: uint64(nd.Epoch), Arg: int64(backAt),
	})
	return nd.Epoch
}

// noteRecovered marks a restarted node as fully recovered the first
// time an inbound RDMA op passes its epoch check, accruing the restart
// -> first-op gap as the observable recovery time.
func (m *Machine) noteRecovered(node int) {
	if m.crash == nil {
		return
	}
	backAt, ok := m.crash.recovery[node]
	if !ok {
		return
	}
	delete(m.crash.recovery, node)
	m.crash.recoveryTime += m.K.Now() - backAt
	m.FR.Record(node, flight.Event{
		T: m.K.Now(), Kind: flight.KindRestart,
		Src: int32(node), Dst: -1, Seq: uint64(m.Nodes[node].Epoch),
		Arg: int64(m.K.Now() - backAt),
	})
}

// startEngines starts nd's AM dispatcher contexts, one per name suffix,
// and its NIC's DMA engine. Both kinds run as kernel callbacks.
func (m *Machine) startEngines(nd *Node, suffixes []string) {
	q := m.Fab.Port(nd.ID).AM
	for _, suffix := range suffixes {
		e := &amEngine{m: m, nd: nd, q: q}
		e.ct = m.K.SpawnService("node", nd.ID, suffix, e, amPop)
	}
	m.startDMAEngine(nd)
}

// amEngine is one AM dispatcher context of a node: it drains the node's
// AM queue and serves each message with its header handler, which must
// run on the Comm resource — the compute CPU itself when the transport
// does not overlap computation and communication, so a busy CPU stalls
// remote requests (the effect behind the paper's Field analysis), or a
// dedicated engine when it does. Like the DMA engine beside it, it is a
// state machine of kernel callbacks, not a process: its steps are frames
// on its continuation ct, and the message or coalesced frame in service
// lives here. It makes the calls, in the same order, that the process
// dispatcher it replaced made — its start event, its place in the
// queue's waiter list, its Comm acquisitions, its sleeps — so the event
// stream is the process's, without a coroutine switch per wait.
type amEngine struct {
	m  *Machine
	nd *Node
	q  *sim.Queue[any]
	ct *sim.Cont

	msg       *Msg      // the message in service
	acq, recv sim.Time  // when it started waiting for Comm, and got it
	t0        sim.Time  // when a sub-message's entry cost began
	batch     *batchMsg // the coalesced frame in service, if any
	next      int       // ... its next sub-message
	reply     *coalBuf  // ... the reply frame its handlers answer into
	scratch   *BatchScratch
}

// amEngine steps.
const (
	amPop           = iota // wait for the next message, or start serving it
	amAcquired             // holding Comm: pay the receive overhead
	amReceived             // run the handler
	amHandled              // release Comm, serve the next message
	amBatchAcquired        // a frame holds Comm: pay the receive overhead once
	amBatchNext            // serve the frame's next sub-message, or end the frame
	amSubReceived          // sub-message entry cost paid: run its handler
	amSubHandled           // sub-message served
	amBatchFlushed         // reply frame on the wire: release Comm
)

func (e *amEngine) Step(pc int) {
	m, ct, now := e.m, e.ct, e.m.K.Now()
	switch pc {
	case amPop:
		e.pop()
	case amAcquired:
		// Everything between physical arrival and handler start is the
		// target being busy: queue residency behind earlier handlers
		// plus waiting for a CPU/comm context. On non-overlapping
		// transports this is the target CPU computing — the paper's
		// §4.6 culprit.
		e.msg.Span.Phase(telemetry.PhaseCPUWait, e.msg.arrived, e.acq)
		e.msg.Span.Phase(telemetry.PhaseCPUWait, e.acq, now)
		e.recv = now
		ct.Sleep(RecvOverhead, ct.Then(e, amReceived))
	case amReceived:
		e.msg.Span.Phase(telemetry.PhaseRecv, e.recv, now)
		m.handlers[e.msg.Handler](ct, e.nd, e.msg, ct.Then(e, amHandled))
	case amHandled:
		e.nd.Comm.Release()
		m.freeMsg(e.msg)
		e.msg = nil
		e.pop()
	case amBatchAcquired:
		e.recv = now
		ct.Sleep(RecvOverhead, ct.Then(e, amBatchNext))
	case amBatchNext:
		e.serveSub()
	case amSubReceived:
		e.subReceived()
	case amSubHandled:
		e.msg.reply = nil
		m.freeMsg(e.msg)
		e.msg = nil
		e.next++
		e.serveSub()
	case amBatchFlushed:
		e.nd.Comm.Release()
		e.batch, e.reply, e.scratch = nil, nil, nil
		e.pop()
	}
}

// pop takes the next message off the queue and starts serving it, or
// files the context in the queue's waiter list.
func (e *amEngine) pop() {
	m, ct := e.m, e.ct
	raw, ok := e.q.TryPop()
	if !ok {
		e.q.WaitFn(ct, ct.Then(e, amPop))
		return
	}
	if b, ok := raw.(*batchMsg); ok {
		e.startBatch(b)
		return
	}
	msg := raw.(*Msg)
	m.pool.msgs.Live(msg)
	if m.handlers[msg.Handler] == nil {
		panic(fmt.Sprintf("transport: node %d: no handler %d", e.nd.ID, msg.Handler))
	}
	msg.Span.Phase(telemetry.PhaseWire, msg.sent, msg.arrived)
	e.msg, e.acq = msg, m.K.Now()
	e.nd.Comm.AcquireCont(ct, ct.Then(e, amAcquired))
}

// SendAMSpanC injects an active message from node src toward dst on
// behalf of thread ct, charging the initiator's CPU send overhead and
// NIC injection: then runs once the message is on the wire; delivery
// and handling are asynchronous. extra widens the wire size beyond
// header+payload (piggybacked data). The initiator's send phase
// (software overhead plus NIC injection) is attributed to span, which
// rides with the message so the target's dispatcher and handler
// attribute their phases into the same operation. A handler replies
// with it too, from its context's continuation: the context keeps
// holding Comm, so on non-overlapping transports reply construction
// occupies the CPU.
func (m *Machine) SendAMSpanC(ct *sim.Cont, src, dst int, id HandlerID, meta any, payload []byte, extra int, span *telemetry.Span, then func()) {
	if src == dst {
		panic("transport: AM to self; intra-node traffic must use shared memory")
	}
	m.amCount++
	msg := m.newMsg()
	msg.Src, msg.Dst, msg.Handler, msg.Meta, msg.Payload = src, dst, id, meta, payload
	msg.wire = AMHeaderBytes + len(payload) + extra
	msg.Span = span
	m.newTxOp(ct, txAM, src, dst, msg.wire, fabric.ClassAM, msg, span, then).send(m.Prof.SendOverhead)
}
