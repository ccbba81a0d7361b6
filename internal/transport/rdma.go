package transport

import (
	"fmt"

	"xlupc/internal/fabric"
	"xlupc/internal/flight"
	"xlupc/internal/mem"
	"xlupc/internal/sim"
	"xlupc/internal/telemetry"
)

// dmaKind is the opcode of an RDMA work request.
type dmaKind uint8

const (
	dmaRead       dmaKind = iota // fetch size bytes at raddr and stream them back
	dmaWrite                     // deposit buf at raddr
	dmaRMW                       // apply aop to the 8-byte word at raddr
	dmaCompletion                // carry a read's or RMW's outcome back to the initiator NIC
)

// dmaLabel names a request opcode in counters and messages, and
// dmaDoneName names its completion.
var (
	dmaLabel    = [...]string{dmaRead: "get", dmaWrite: "put", dmaRMW: "atomic"}
	dmaDoneName = [...]string{dmaRead: "rdma-get", dmaWrite: "rdma-put", dmaRMW: "rdma-atomic"}
)

// dmaOp is the one RDMA work request, serviced by a NIC's DMA engine
// with no CPU: the three requests a target engine executes and the
// completion an initiator engine retires differ by opcode only. Data
// completions ride the typed data lane (no per-op interface boxing);
// NACKs use the any-valued one.
type dmaOp struct {
	kind      dmaKind
	aop       AtomicOp // RMW: the combine function
	epoch     uint32   // target incarnation the initiator believes in
	initiator int
	base      mem.Addr // pinned-region base, for the pin-table check and LRU
	raddr     mem.Addr
	done      *sim.Completion // completes at the initiator: []byte, nil or a Nack

	// buf is the read's posted receive buffer (the engine deposits the
	// data there directly, like a real NIC; nil falls back to an
	// allocated copy of size bytes), the write's payload, the RMW's
	// posted 8-byte result word (nil for accumulations) or the
	// completion's data, which aliases the request's buf.
	buf  []byte
	size int

	delta uint64 // RMW: what is added to the word

	val any // completion: the Nack, if the target refused

	span    *telemetry.Span
	sent    sim.Time // injection time, start of the wire phase
	arrived sim.Time // physical delivery time at the servicing NIC
}

// Nack is the completion value of an RDMA operation refused at the
// target. Two causes exist: the region was deregistered (evicted) under
// the limited-pinning policy — Stale is false and the initiator drops
// the one stale cache entry — or the descriptor carried a pre-crash
// incarnation epoch — Stale is true, Epoch is the target's current
// epoch, and the initiator must invalidate every cached address for
// that node before falling back to the active-message path. Under
// pin-everything with matching epochs a live cache entry always implies
// a pinned region, so a missing registration is a protocol bug and
// panics instead.
type Nack struct {
	Stale bool
	Epoch uint32 // target's current incarnation (stale NACKs only)
}

// RDMAResult receives the outcome of an initiator-side RDMA call. The
// caller owns it (a thread has one, since it blocks in at most one
// such call at a time); the call fills it in before its then runs.
type RDMAResult struct {
	// Done is set when the call is made. For a PUT it fires when the
	// data is globally visible in target memory (or with a Nack), which
	// fences wait on; for a split-phase start it fires at the initiator
	// with the data ([]byte) or a Nack once the RDMA-mode extra latency
	// has elapsed.
	Done *sim.Completion

	// Outcome of a blocking read or atomic. OK is false when the target
	// NACKed, and Nack then tells the caller whether one entry went
	// stale (deregistration) or the whole node did (crash) — a single
	// eviction or a node-wide flush — before it falls back to the
	// active-message path.
	Data []byte // the data read; aliases the posted buffer, if any
	Old  uint64 // an atomic's previous value (zero for AtomicAccumulate)
	Nack Nack
	OK   bool
}

// txKind is what an injection is, which decides what happens once it
// is on the wire.
type txKind uint8

const (
	txAM     txKind = iota // active message, or split-phase descriptor: done when sent
	txRead                 // blocking read: await the response, then the RDMA-mode latency
	txAtomic               // blocking atomic: a read whose data is the previous value
	txWrite                // blocking write: the RDMA-mode latency only
	txFlush                // coalesced frame: stamp every operation in it
	txAppend               // operation joining a coalescing buffer (becomes a txFlush if that fills it)
)

// txOp steps.
const (
	txAcquire  = iota // software overhead paid: queue for the NIC
	txInject          // holding the TX port: serialize
	txSent            // on the wire
	txWoke            // response arrived
	txLatency         // RDMA-mode latency elapsed
	txAppended        // append cost paid
)

// txOp is the one initiator-side send path: software overhead, TX
// arbitration, serialization, and — for blocking one-sided operations
// — the wait for the response and the RDMA-mode latency. Active
// messages, RDMA descriptors and coalesced frames all go through it,
// from continuation-mode threads and (through Proc.Cont and Await)
// from processes alike. Records are pooled and their steps are frames
// on the sender's Cont, so a send allocates nothing. A record holds no
// injected object at rest, so pooling is safe under the reliable layer
// too.
type txOp struct {
	m     *Machine
	ct    *sim.Cont
	kind  txKind
	src   int
	dst   int
	wire  int
	class fabric.Class
	obj   any // what is injected: *Msg, a dma descriptor, or a frame
	span  *telemetry.Span
	then  func()

	t0, lat sim.Time
	tx      *sim.Resource
	done    *sim.Completion // txRead, txAtomic: the response
	res     *RDMAResult     // txRead, txAtomic: where the outcome goes
	buf     *coalBuf        // txFlush: the buffer being flushed
}

func (m *Machine) newTxOp(ct *sim.Cont, kind txKind, src, dst, wire int, class fabric.Class, obj any, span *telemetry.Span, then func()) *txOp {
	o := m.pool.txops.Get()
	o.m, o.ct, o.kind, o.src, o.dst, o.wire, o.class, o.obj, o.span, o.then = m, ct, kind, src, dst, wire, class, obj, span, then
	o.t0 = m.K.Now()
	return o
}

// finish recycles the record and continues the sender.
func (o *txOp) finish() {
	m, then := o.m, o.then
	o.ct, o.obj, o.span, o.then, o.tx, o.done, o.res, o.buf = nil, nil, nil, nil, nil, nil, nil, nil
	m.pool.txops.Put(o)
	then()
}

// send starts the path: the sender pays the software overhead d first.
func (o *txOp) send(d sim.Duration) { o.ct.Sleep(d, o.ct.Then(o, txAcquire)) }

func (o *txOp) Step(pc int) {
	m, ct := o.m, o.ct
	switch pc {
	case txAcquire:
		o.tx = m.Fab.Port(o.src).TX
		if !o.tx.TryAcquire() {
			o.tx.AcquireCont(ct, ct.Then(o, txInject))
			return
		}
		fallthrough
	case txInject:
		m.inject(o.src, o.dst, o.wire, o.class, o.obj, o.span, ct.ThenAt(o, txSent))
	case txSent:
		o.sent(ct.At())
	case txWoke:
		// RDMA mode adds latency (the HPS trait) without occupying any
		// engine: charge it to the initiator's roundtrip.
		o.lat = m.K.Now()
		if d := m.Prof.RDMAExtraLatency; d > 0 {
			ct.Sleep(d, ct.Then(o, txLatency))
			return
		}
		fallthrough
	case txLatency:
		o.span.Phase(telemetry.PhaseRDMALatency, o.lat, m.K.Now())
		if o.kind != txWrite {
			o.outcome()
		}
		o.finish()
	case txAppended:
		o.appended()
	}
}

// sent runs when the injection is serialized onto the wire, arriving
// at arrive: free the port, stamp what was sent, and either continue
// the sender or (blocking one-sided operations) wait.
func (o *txOp) sent(arrive sim.Time) {
	m := o.m
	o.tx.Release()
	now := m.K.Now()
	phase := telemetry.PhaseSend
	if o.class == fabric.ClassDMA {
		phase = telemetry.PhaseRDMASetup
	}
	if o.kind == txFlush {
		o.buf.stamp(o.obj, o.t0, now, arrive)
		for _, span := range o.buf.spans {
			span.Phase(phase, o.t0, now)
		}
		o.finish()
		return
	}
	stamp(o.obj, now, arrive)
	o.span.Phase(phase, o.t0, now)
	o.obj = nil // the target owns (and frees) it from here
	switch o.kind {
	case txRead, txAtomic:
		o.done.WaitFn(o.ct, o.ct.Then(o, txWoke))
	case txWrite:
		// Hardware completion of the origin side: the buffer is reusable
		// after the RDMA-mode latency.
		o.Step(txWoke)
	default:
		o.finish()
	}
}

// outcome hands a blocking read's or atomic's response to the caller.
func (o *txOp) outcome() {
	m := o.m
	val, data := o.done.Value(), o.done.Bytes()
	m.K.Recycle(o.done) // fully consumed: no reference survives this call
	if nk, isNack := val.(Nack); isNack {
		if o.kind == txAtomic {
			m.nacks[dmaRMW]++
		} else {
			m.nacks[dmaRead]++
		}
		*o.res = RDMAResult{Nack: nk}
		return
	}
	*o.res = RDMAResult{Data: data, OK: true}
	if o.kind == txAtomic && data != nil {
		o.res.Old = atomicOrder.Uint64(data)
	}
}

// stamp records the injection and arrival times on a sent operation.
func stamp(op any, sent, arrived sim.Time) {
	switch o := op.(type) {
	case *Msg:
		o.sent, o.arrived = sent, arrived
	case *dmaOp:
		o.sent, o.arrived = sent, arrived
	}
}

// newDMA builds the request of one one-sided operation, completion
// included. The pooled record arrives zeroed, so only the fields every
// request has are filled here and the caller adds its opcode's own
// (a struct literal would rewrite the whole record a second time).
func (m *Machine) newDMA(kind dmaKind, src int, base, raddr mem.Addr, buf []byte, epoch uint32, span *telemetry.Span) *dmaOp {
	op := m.newDMAOp()
	op.kind, op.initiator, op.base, op.raddr, op.buf, op.epoch, op.span = kind, src, base, raddr, buf, epoch, span
	op.done = sim.NewCompletion(m.K, dmaDoneName[kind])
	return op
}

// postRead sends the request of a blocking read or atomic, whose
// response completes op.done and whose outcome goes to res.
func (m *Machine) postRead(ct *sim.Cont, kind txKind, src, dst, wire int, op *dmaOp, res *RDMAResult, then func()) {
	m.rdmaCount++
	o := m.newTxOp(ct, kind, src, dst, wire, fabric.ClassDMA, op, op.span, then)
	o.done, o.res = op.done, res
	o.send(m.Prof.RDMASetup)
}

// startDMA issues one split-phase request: then runs once it is
// injected — or, with coalescing enabled, parked in the (src,dst)
// doorbell batch instead of paying its own setup, TX arbitration and
// injection.
func (m *Machine) startDMA(ct *sim.Cont, src, dst, wire int, op *dmaOp, then func()) {
	m.rdmaCount++
	if c := m.coal; c != nil {
		c.appendCont(ct, coalKey{src: src, dst: dst, class: fabric.ClassDMA}, op, wire, op.span, then)
		return
	}
	m.newTxOp(ct, txAM, src, dst, wire, fabric.ClassDMA, op, op.span, then).send(m.Prof.RDMASetup)
}

// RDMAGetSpanC performs a one-sided read of size bytes at raddr in
// dst's memory on behalf of thread ct: then runs, with the outcome in
// res, once the data has arrived and the RDMA-mode extra latency has
// elapsed. base is the pinned region raddr lies in, epoch the target
// incarnation the initiator believes in (cached-address paths pass the
// epoch they cached), span the operation's telemetry span: descriptor
// setup and injection, target DMA service, completion and the extra
// latency are attributed to it phase by phase. When into is non-nil it
// is the posted receive buffer (len(into) must equal size): the data
// lands there with no per-read allocation, and res.Data aliases it.
func (m *Machine) RDMAGetSpanC(ct *sim.Cont, src, dst int, base, raddr mem.Addr, into []byte, size int, epoch uint32, span *telemetry.Span, res *RDMAResult, then func()) {
	op := m.newDMA(dmaRead, src, base, raddr, into, epoch, span)
	op.size = size
	m.postRead(ct, txRead, src, dst, RDMADescBytes, op, res, then)
}

// RDMAPutSpanC performs a one-sided write of data to raddr in dst's
// memory: then runs once the origin buffer is reusable — injection plus
// the transport's RDMA-mode completion latency (the HPS trait that
// makes small cached PUTs a net loss on LAPI) — and res.Done, set
// before RDMAPutSpanC returns, fires when the data is globally visible
// in target memory.
func (m *Machine) RDMAPutSpanC(ct *sim.Cont, src, dst int, base, raddr mem.Addr, data []byte, epoch uint32, span *telemetry.Span, res *RDMAResult, then func()) {
	op := m.newDMA(dmaWrite, src, base, raddr, data, epoch, span)
	res.Done = op.done
	m.rdmaCount++
	m.newTxOp(ct, txWrite, src, dst, RDMADescBytes+len(data), fabric.ClassDMA, op, span, then).send(m.Prof.RDMASetup)
}

// RDMAGetStartC issues a one-sided read without waiting for it: then
// runs once the descriptor is injected (or parked in the doorbell
// batch), and res.Done, set before RDMAGetStartC returns, fires at the
// initiator with the data or a Nack.
func (m *Machine) RDMAGetStartC(ct *sim.Cont, src, dst int, base, raddr mem.Addr, into []byte, size int, epoch uint32, span *telemetry.Span, res *RDMAResult, then func()) {
	op := m.newDMA(dmaRead, src, base, raddr, into, epoch, span)
	op.size = size
	res.Done = m.nbResult(op)
	m.startDMA(ct, src, dst, RDMADescBytes, op, then)
}

// nbResult wraps a split-phase RDMA read's completion: the
// caller-visible completion fires only after the transport's RDMA-mode
// extra latency, and NACKs are counted when the initiator observes
// them, matching the blocking path's accounting.
func (m *Machine) nbResult(op *dmaOp) *sim.Completion {
	// Copied out now: the record is recycled before done fires.
	done, kind, span := op.done, op.kind, op.span
	res := sim.NewCompletion(m.K, "rdma-nb")
	done.Then(func(v any) {
		if _, nack := v.(Nack); nack {
			m.nacks[kind]++
		}
		data := done.Bytes()
		m.K.Recycle(done)
		if m.Prof.RDMAExtraLatency > 0 {
			lat := m.K.Now()
			m.K.After(m.Prof.RDMAExtraLatency, func() {
				span.Phase(telemetry.PhaseRDMALatency, lat, m.K.Now())
				if v != nil {
					res.Complete(v)
				} else {
					res.CompleteBytes(data)
				}
			})
			return
		}
		if v != nil {
			res.Complete(v)
		} else {
			res.CompleteBytes(data)
		}
	})
	return res
}

// recordNack flight-records an RDMA refusal at the target engine. For
// stale NACKs seq carries the descriptor's (pre-crash) epoch; for pin
// NACKs it carries the deregistered region's base address.
func (e *dmaEngine) recordNack(kind flight.Kind, initiator int, seq uint64) {
	e.m.FR.Record(e.nd.ID, flight.Event{
		T: e.m.K.Now(), Kind: kind, Class: flight.ClassDMA,
		Src: int32(initiator), Dst: int32(e.nd.ID), Seq: seq,
		Arg: int64(e.nd.Epoch),
	})
}

// dmaEngine is a node's NIC DMA engine: it services RDMA work requests
// with no CPU involvement, one at a time, entirely as kernel callbacks
// — the handoff-free replacement for the parked dispatcher process
// (two channel rendezvous per hop) the engine used to be. Requests
// wait in the port's DMA queue while the engine is busy, so queue
// telemetry keeps measuring real residency.
type dmaEngine struct {
	m    *Machine
	nd   *Node
	port *fabric.Port
	busy bool

	// pending holds the requests of an unpacked doorbell batch; they
	// are serviced in order before the engine pops the next wire frame.
	pending []any

	// The engine services one request at a time, so its multi-event
	// service chain keeps its in-flight state here — cur is the request
	// in service, then the completion being streamed back — and steps
	// through pre-bound funcs (built once at engine construction)
	// instead of allocating a closure per event.
	cur      *dmaOp
	respDst  int
	respWire int
	t0       sim.Time
	w64      [8]byte // RMW staging word (one op in service at a time)

	serveNextFn  func()
	servedFn     func()
	respDoneFn   func(arrive sim.Time)
	injectRespFn func()
}

func (m *Machine) startDMAEngine(nd *Node) {
	e := &dmaEngine{m: m, nd: nd, port: m.Fab.Port(nd.ID)}
	e.serveNextFn = e.serveNext
	e.servedFn = e.served
	e.respDoneFn = e.respDone
	e.injectRespFn = e.injectResp
	e.port.DMA.Notify(e.kick)
}

// kick reacts to a request arriving on the DMA queue. Service starts
// as a fresh kernel event at the current time — not inline in the
// delivery event — preserving the event interleaving (and thus TX
// arbitration order) of a process dispatcher woken by the push.
func (e *dmaEngine) kick() {
	if e.busy {
		return
	}
	e.busy = true
	e.m.K.After(0, e.serveNextFn)
}

// serveNext starts service of the oldest queued request, or idles the
// engine when none is pending: charge its wire phase and hold the
// engine for the service time. The chain re-enters here when the
// request is fully completed or its answer injected.
func (e *dmaEngine) serveNext() {
	var raw any
	if len(e.pending) > 0 {
		raw = e.pending[0]
		e.pending = e.pending[1:]
	} else {
		var ok bool
		raw, ok = e.port.DMA.TryPop()
		if !ok {
			e.busy = false
			return
		}
	}
	if f, ok := raw.(*dmaFrame); ok {
		// A doorbell batch: unpack and service its requests in order.
		// pending is necessarily empty here — frames are only popped off
		// the wire queue, never nested.
		e.pending = f.ops
		e.serveNext()
		return
	}
	op, ok := raw.(*dmaOp)
	if !ok {
		panic(fmt.Sprintf("transport: node %d: bad DMA op %T", e.nd.ID, raw))
	}
	e.m.pool.dmas.Live(op)
	op.span.Phase(telemetry.PhaseWire, op.sent, op.arrived)
	e.cur = op
	e.t0 = e.m.K.Now()
	cost := e.m.Prof.RDMATargetCost
	if op.kind == dmaCompletion {
		cost = RDMARecvCost
	}
	e.m.K.After(cost, e.servedFn)
}

// served is the post-service-time step. A completion is retired into
// its initiator's sim.Completion. A request passes the one admission
// check — the epoch guard, then the pin table — and has its memory
// effect; the engine is single-served, so nothing interleaves mid-RMW.
func (e *dmaEngine) served() {
	m, k := e.m, e.m.K
	op, t0 := e.cur, e.t0
	e.cur = nil
	if op.kind == dmaCompletion {
		// Queue residency at the initiator NIC plus the completion
		// service itself.
		op.span.Phase(telemetry.PhaseRDMARecv, op.arrived, t0)
		op.span.Phase(telemetry.PhaseRDMARecv, t0, k.Now())
		done, val, data := op.done, op.val, op.buf
		m.freeDMAOp(op)
		if val != nil {
			done.Complete(val)
		} else {
			done.CompleteBytes(data)
		}
		e.serveNext()
		return
	}
	// Queue residency behind earlier requests plus the engine's
	// service time — all DMA-engine occupancy, no CPU.
	op.span.Phase(telemetry.PhaseDMATarget, op.arrived, t0)
	op.span.Phase(telemetry.PhaseDMATarget, t0, k.Now())
	if op.epoch != e.nd.Epoch {
		// The request was built against a previous incarnation: its
		// address describes the pre-crash layout and must not be
		// dereferenced. NACK with the current epoch so the initiator
		// can flush everything it cached for this node.
		m.staleNacks[op.kind]++
		e.recordNack(flight.KindStaleNack, op.initiator, uint64(op.epoch))
		e.answer(op, Nack{Stale: true, Epoch: e.nd.Epoch}, nil, 0)
		return
	}
	m.noteRecovered(e.nd.ID)
	if !e.nd.Pins.TouchOK(op.base, k.Now()) {
		// A NACK under limited pinning, a crash under pin-everything
		// (where it can only be a runtime bug: the epoch matched, so
		// the registration cannot have been lost to a crash).
		if e.nd.Pins.Policy() != mem.PinLimited {
			panic(fmt.Sprintf("transport: node %d: RDMA %s to unpinned region %#x under pin-all", e.nd.ID, dmaLabel[op.kind], op.base))
		}
		if op.kind == dmaWrite {
			// No response travels back for the initiator to count it on.
			m.nacks[dmaWrite]++
		}
		e.recordNack(flight.KindPinNack, op.initiator, uint64(op.base))
		e.answer(op, Nack{}, nil, 0)
		return
	}
	var data []byte
	var extra int
	switch op.kind {
	case dmaRead:
		data, extra = op.buf, op.size
		if data != nil {
			e.nd.Mem.Read(data, op.raddr)
		} else {
			data = e.nd.Mem.ReadAlloc(op.raddr, op.size)
		}
	case dmaWrite:
		e.nd.Mem.Write(op.raddr, op.buf)
	case dmaRMW:
		e.nd.Mem.Read(e.w64[:], op.raddr)
		old := atomicOrder.Uint64(e.w64[:])
		atomicOrder.PutUint64(e.w64[:], old+op.delta)
		e.nd.Mem.Write(op.raddr, e.w64[:])
		m.FR.Record(e.nd.ID, flight.Event{
			T: k.Now(), Kind: flight.KindAtomic, Class: flight.ClassDMA,
			Src: int32(op.initiator), Dst: int32(e.nd.ID),
			Seq: uint64(op.raddr), Arg: int64(op.aop),
		})
		if op.buf != nil {
			atomicOrder.PutUint64(op.buf, old)
			data = op.buf
		}
		extra = op.aop.ResultBytes()
	}
	e.answer(op, nil, data, extra)
}

// answer ends a request's service with val (a Nack, or nil) and data.
// A write completes its done on the spot — visibility in target memory
// is the event fences wait on; a read or RMW streams a completion of
// the descriptor plus extra data bytes back to the initiator NIC.
func (e *dmaEngine) answer(op *dmaOp, val any, data []byte, extra int) {
	m := e.m
	kind, initiator, done, span := op.kind, op.initiator, op.done, op.span
	m.freeDMAOp(op)
	if kind == dmaWrite {
		done.Complete(val)
		e.serveNext()
		return
	}
	resp := m.newDMAOp()
	resp.kind, resp.done, resp.val, resp.buf, resp.span = dmaCompletion, done, val, data, span
	e.sendResp(initiator, RDMADescBytes+extra, resp)
}

// sendResp streams an RDMA completion back to the initiator: acquire
// the node's TX port (FIFO with every other sender on the node), hold
// it through serialization, then move on to the next request. The
// in-flight completion rides the engine's cur slot through the two
// pre-bound steps (the engine stays busy until the injection finishes,
// so there is never more than one).
func (e *dmaEngine) sendResp(dst int, wire int, resp *dmaOp) {
	e.cur = resp
	e.respDst = dst
	e.respWire = wire
	e.port.TX.AcquireC(e.injectRespFn)
}

// injectResp runs holding the TX port: hand the completion to the wire.
func (e *dmaEngine) injectResp() {
	e.m.inject(e.nd.ID, e.respDst, e.respWire, fabric.ClassDMA, e.cur, e.cur.span, e.respDoneFn)
}

// respDone runs when the completion is serialized onto the wire.
func (e *dmaEngine) respDone(arrive sim.Time) {
	resp := e.cur
	e.cur = nil
	resp.arrived = arrive
	e.port.TX.Release()
	resp.sent = e.m.K.Now()
	e.serveNext()
}
