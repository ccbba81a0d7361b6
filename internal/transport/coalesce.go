package transport

import (
	"fmt"
	"slices"

	"xlupc/internal/fabric"
	"xlupc/internal/flight"
	"xlupc/internal/pool"
	"xlupc/internal/sim"
	"xlupc/internal/telemetry"
)

// Per-destination small-message coalescing: instead of paying a full
// header, injection and doorbell per eager AM or RDMA descriptor,
// outgoing operations park in a per-(src,dst) buffer and travel in one
// wire frame — the paper's §6 "per-message software overhead" left on
// the table, and the doorbell batching that makes small RDMA ops cheap
// on modern NICs. The deployed parameters:
const (
	// coalMaxOps flushes a buffer once it holds this many operations.
	coalMaxOps = 16
	// coalMaxBytes flushes once the buffered sub-frames reach this size.
	coalMaxBytes = 4096
	// coalFlushDelay bounds the time an operation may sit in a buffer: a
	// cancellable virtual-time timer flushes whatever accumulated.
	coalFlushDelay = 3 * sim.Us
	// coalSubHeaderBytes is the per-operation framing inside a batch
	// frame, replacing the full AMHeaderBytes each message would have
	// paid.
	coalSubHeaderBytes = 16
	// coalAppendCost is the initiator CPU time to append one operation
	// to a buffer (descriptor build into the staged doorbell write).
	coalAppendCost = 150 * sim.Ns
	// coalSubRecvOverhead is the target-side handler entry cost per
	// sub-message of a batch; the full RecvOverhead is paid once per
	// frame.
	coalSubRecvOverhead = 300 * sim.Ns
)

// CoalConfig switches coalescing on: a run coalesces when its
// core.Config.Coalesce is non-nil. It holds no field — every parameter
// is a constant above.
type CoalConfig struct{}

// DefaultCoalConfig returns the deployed coalescing configuration.
func DefaultCoalConfig() CoalConfig { return CoalConfig{} }

// CoalStats counts the coalescer's work. The frames it injected are
// the flight record's coalesce_flush events.
type CoalStats struct {
	Msgs       int64 // operations routed through the coalescer
	SavedBytes int64 // header bytes the batching kept off the wire
}

// batchMsg is one coalesced active-message frame: several logical AMs
// sharing a single header, injection and delivery event.
type batchMsg struct {
	Src     int
	msgs    []*Msg
	sent    sim.Time
	arrived sim.Time
}

// dmaFrame is one coalesced doorbell write: several RDMA descriptors
// delivered to the target DMA engine as a single arrival.
type dmaFrame struct {
	ops []any // *dmaOp requests
}

// BatchScratch is per-batch shared state the target-side handlers of
// one frame's sub-messages may accumulate into (the runtime uses it to
// collect (handle, base) pairs so one reply pre-populates several
// address-cache entries).
type BatchScratch struct{ Val any }

type coalKey struct {
	src, dst int
	class    fabric.Class
}

// coalBuf is one (src,dst,class) coalescing buffer.
type coalBuf struct {
	key    coalKey
	ops    []any // *Msg for AM, *dmaOp for DMA
	spans  []*telemetry.Span
	queued []sim.Time
	bytes  int // accumulated sub-frame wire bytes
	timer  *sim.Timer
	closed bool // flushed; late appends must go direct
}

// coalescer owns every buffer of a machine plus the reply batch open
// during batch service.
type coalescer struct {
	m     *Machine
	bufs  map[coalKey]*coalBuf
	syncs pool.Free[coalSync]

	st      CoalStats              // what CoalStats reports
	flushes [len(flushNames)]int64 // flushes by trigger
}

// The flush triggers: MaxOps or MaxBytes reached, the virtual-time
// backstop, and an explicit Sync or fence or the end of a batch's
// service.
const (
	flushSize = iota
	flushTimer
	flushSync
)

var flushNames = [...]string{flushSize: "size", flushTimer: "timer", flushSync: "sync"}

// EnableCoalescing turns on per-destination message coalescing. Must be
// called before the simulation starts; when never called the machine's
// event stream is bit-identical to a build without this file.
func (m *Machine) EnableCoalescing() {
	if m.coal != nil {
		panic("transport: EnableCoalescing called twice")
	}
	m.coal = &coalescer{m: m, bufs: make(map[coalKey]*coalBuf)}
}

// CoalStats reports the coalescer's counters (zero value when off).
func (m *Machine) CoalStats() CoalStats {
	if m.coal == nil {
		return CoalStats{}
	}
	return m.coal.st
}

// FlushesByReason calls each with every flush trigger's name and the
// flushes it caused (none when coalescing is off).
func (m *Machine) FlushesByReason(each func(reason string, n int64)) {
	if m.coal == nil {
		return
	}
	for r, name := range flushNames {
		each(name, m.coal.flushes[r])
	}
}

// buf returns (creating if needed) the buffer for key, arming the
// flush-timer backstop on first use.
func (c *coalescer) buf(key coalKey) *coalBuf {
	b, ok := c.bufs[key]
	if !ok {
		b = &coalBuf{key: key}
		c.bufs[key] = b
	}
	return b
}

// appendCont parks one operation of thread ct in its buffer, charging
// the (small) append cost, and flushes inline when a threshold trips;
// then runs once the operation is parked (or the flush it tripped is on
// the wire). subwire is the operation's contribution to the frame.
func (c *coalescer) appendCont(ct *sim.Cont, key coalKey, op any, subwire int, span *telemetry.Span, then func()) {
	if key.src == key.dst {
		panic(fmt.Sprintf("transport: node %d coalescing to itself", key.src))
	}
	o := c.m.newTxOp(ct, txAppend, key.src, key.dst, subwire, key.class, op, span, then)
	ct.Sleep(coalAppendCost, ct.Then(o, txAppended))
}

// appended runs once the append cost is paid. A reply (o.buf set: the
// reply frame of the batch being served) joins that frame, which has no
// timer and no size threshold: it is flushed when the batch is served.
func (o *txOp) appended() {
	c := o.m.coal
	b, reply := o.buf, o.buf != nil
	if !reply {
		b = c.buf(coalKey{src: o.src, dst: o.dst, class: o.class})
		if len(b.ops) == 0 {
			b.timer = c.m.K.AfterTimer(coalFlushDelay, func() { c.flushC(b) })
		}
	}
	b.ops = append(b.ops, o.obj)
	b.spans = append(b.spans, o.span)
	b.queued = append(b.queued, c.m.K.Now())
	b.bytes += o.wire
	c.st.Msgs++
	if !reply && (len(b.ops) >= coalMaxOps || b.bytes >= coalMaxBytes) {
		o.flush(b, flushSize)
		return
	}
	o.finish()
}

// take detaches a buffer for flushing: cancels its timer, removes it
// from the map and marks it closed so a reference kept by a message
// still in service falls back to the direct path.
func (c *coalescer) take(b *coalBuf) bool {
	if b.closed || len(b.ops) == 0 {
		return false
	}
	if b.timer != nil {
		b.timer.Cancel()
		b.timer = nil
	}
	b.closed = true
	if c.bufs[b.key] == b { // reply buffers never enter the map
		delete(c.bufs, b.key)
	}
	return true
}

// frame assembles the detached buffer's wire frame and accounts for the
// header bytes batching saved versus individual sends.
func (c *coalescer) frame(b *coalBuf) (any, int) {
	n := len(b.ops)
	var frame any
	var wire, unbatched int
	if b.key.class == fabric.ClassAM {
		msgs := make([]*Msg, n)
		for i, op := range b.ops {
			msgs[i] = op.(*Msg)
		}
		wire = AMHeaderBytes + b.bytes
		// Each sub-frame replaced a full AM header with coalSubHeaderBytes.
		unbatched = wire + n*(AMHeaderBytes-coalSubHeaderBytes) - AMHeaderBytes
		frame = &batchMsg{Src: b.key.src, msgs: msgs}
	} else {
		// A doorbell batch: descriptors share one frame and one arrival;
		// the bytes are the descriptors themselves.
		wire = b.bytes
		unbatched = wire
		frame = &dmaFrame{ops: b.ops}
	}
	c.st.SavedBytes += int64(unbatched - wire)
	// The frame's ordinal in the run: the flushes recorded before it,
	// plus one.
	c.m.FR.Record(b.key.src, flight.Event{
		T: c.m.K.Now(), Kind: flight.KindCoalFlush, Class: b.key.class.Flight(),
		Src: int32(b.key.src), Dst: int32(b.key.dst),
		Seq: uint64(c.m.FR.Total(flight.KindCoalFlush)) + 1, Arg: int64(n),
	})
	return frame, wire
}

// stamp records the coalesce-flush phase (buffer residency) and the
// injection times on the frame and every sub-operation of a flushed
// buffer.
func (b *coalBuf) stamp(frame any, flushStart, sent, arrived sim.Time) {
	if bm, ok := frame.(*batchMsg); ok {
		bm.sent, bm.arrived = sent, arrived
	}
	for i, span := range b.spans {
		span.Phase(telemetry.PhaseCoalFlush, b.queued[i], flushStart)
	}
	for _, op := range b.ops {
		stamp(op, sent, arrived)
	}
}

// flushCont injects a buffer's frame on behalf of thread ct: one send
// overhead, one TX acquisition, one serialization for the whole batch;
// then runs once the frame is on the wire (at once when somebody else
// already flushed the buffer).
func (c *coalescer) flushCont(ct *sim.Cont, b *coalBuf, reason int, then func()) {
	c.m.newTxOp(ct, txFlush, 0, 0, 0, 0, nil, nil, then).flush(b, reason)
}

// flush turns the record into the flush of b.
func (o *txOp) flush(b *coalBuf, reason int) {
	c := o.m.coal
	if !c.take(b) {
		o.finish()
		return
	}
	c.flushes[reason]++
	o.kind, o.buf, o.span = txFlush, b, nil
	o.src, o.dst, o.class = b.key.src, b.key.dst, b.key.class
	o.t0 = c.m.K.Now()
	o.obj, o.wire = c.frame(b)
	o.send(c.m.Prof.SendOverhead)
}

// flushC is the timer-fired flush: kernel context, no process to
// charge — the NIC fires the staged doorbell itself.
func (c *coalescer) flushC(b *coalBuf) {
	if !c.take(b) {
		return
	}
	c.flushes[flushTimer]++
	flushStart := c.m.K.Now()
	frame, wire := c.frame(b)
	tx := c.m.Fab.Port(b.key.src).TX
	tx.AcquireC(func() {
		finish := func(arrived sim.Time) {
			tx.Release()
			b.stamp(frame, flushStart, c.m.K.Now(), arrived)
		}
		if rl := c.m.rel; rl != nil {
			rl.injectC(b.key.src, b.key.dst, wire, b.key.class, frame, nil, finish)
			return
		}
		c.m.Fab.InjectC(b.key.src, b.key.dst, wire, b.key.class, frame, finish)
	})
}

// coalSync is one FlushCoalescedC in progress: the buffers to flush,
// in order. Pooled, keys and all.
type coalSync struct {
	c    *coalescer
	ct   *sim.Cont
	keys []coalKey
	then func()
}

// FlushCoalescedC flushes every buffer node src has open, in
// deterministic (dst, class) order, on behalf of thread ct, and then
// runs then. Sync, fence and barrier call it; a machine without
// coalescing continues at once.
func (m *Machine) FlushCoalescedC(ct *sim.Cont, src int, then func()) {
	c := m.coal
	if c == nil {
		then()
		return
	}
	o := c.syncs.Get()
	o.c, o.ct, o.then = c, ct, then
	for k, b := range c.bufs {
		if k.src == src && len(b.ops) > 0 {
			o.keys = append(o.keys, k)
		}
	}
	// Descending, because Step takes them off the end.
	slices.SortFunc(o.keys, func(a, b coalKey) int {
		if a.dst != b.dst {
			return b.dst - a.dst
		}
		return int(b.class) - int(a.class)
	})
	o.Step(0)
}

// Step flushes the next buffer, or finishes.
func (o *coalSync) Step(int) {
	c := o.c
	for n := len(o.keys); n > 0; n = len(o.keys) {
		k := o.keys[n-1]
		o.keys = o.keys[:n-1]
		// Another thread of the node may have flushed (and so unmapped)
		// the buffer while this one was busy with an earlier key.
		if b := c.bufs[k]; b != nil {
			c.flushCont(o.ct, b, flushSync, o.ct.Then(o, 0))
			return
		}
	}
	then := o.then
	o.ct, o.then = nil, nil
	c.syncs.Put(o)
	then()
}

// SendAMCoalescedC queues an active message of thread ct into the
// (src,dst) coalescing buffer, or falls back to an individual
// SendAMSpanC when coalescing is off. The logical message keeps its
// own handler, meta, payload and span; only the wire framing is shared.
func (m *Machine) SendAMCoalescedC(ct *sim.Cont, src, dst int, id HandlerID, meta any, payload []byte, extra int, span *telemetry.Span, then func()) {
	c := m.coal
	if c == nil {
		m.SendAMSpanC(ct, src, dst, id, meta, payload, extra, span, then)
		return
	}
	if src == dst {
		panic("transport: AM to self; intra-node traffic must use shared memory")
	}
	m.amCount++
	sub := coalSubHeaderBytes + len(payload) + extra
	msg := m.newMsg()
	msg.Src, msg.Dst, msg.Handler, msg.Meta, msg.Payload = src, dst, id, meta, payload
	msg.wire = sub
	msg.Span = span
	c.appendCont(ct, coalKey{src: src, dst: dst, class: fabric.ClassAM}, msg, sub, span, then)
}

// ReplyToSpanC replies to req from inside its handler, on the handler's
// continuation ct, and runs then once the reply is sent. While req is
// being served as part of a batch frame, the reply joins the batch's
// reply buffer — the target answers a coalesced frame with one
// coalesced frame — and otherwise (or with coalescing off) it is an
// ordinary reply.
func (m *Machine) ReplyToSpanC(ct *sim.Cont, req *Msg, id HandlerID, meta any, payload []byte, extra int, span *telemetry.Span, then func()) {
	c := m.coal
	if c == nil || req.reply == nil || req.reply.closed {
		m.SendAMSpanC(ct, req.Dst, req.Src, id, meta, payload, extra, span, then)
		return
	}
	b := req.reply
	m.amCount++
	sub := coalSubHeaderBytes + len(payload) + extra
	msg := m.newMsg()
	msg.Src, msg.Dst, msg.Handler, msg.Meta, msg.Payload = b.key.src, b.key.dst, id, meta, payload
	msg.wire = sub
	msg.Span = span
	o := m.newTxOp(ct, txAppend, b.key.src, b.key.dst, sub, fabric.ClassAM, msg, span, then)
	o.buf = b
	ct.Sleep(coalAppendCost, ct.Then(o, txAppended))
}

// startBatch starts serving a coalesced frame: every sub-message is
// dispatched under a single Comm acquisition, the frame paying the full
// receive overhead once and each sub-message only the smaller per-op
// entry cost. Replies the handlers issue toward the frame's origin
// coalesce into one reply frame, flushed when service ends.
func (e *amEngine) startBatch(b *batchMsg) {
	m, ct := e.m, e.ct
	if m.coal == nil {
		panic(fmt.Sprintf("transport: node %d received a batch frame with coalescing off", e.nd.ID))
	}
	e.batch, e.next = b, 0
	e.reply = &coalBuf{key: coalKey{src: e.nd.ID, dst: b.Src, class: fabric.ClassAM}}
	e.scratch = &BatchScratch{}
	e.acq = m.K.Now()
	e.nd.Comm.AcquireCont(ct, ct.Then(e, amBatchAcquired))
}

// serveSub starts on the frame's next sub-message, or ends the frame:
// flush the reply frame, if the handlers answered into it, then let go
// of Comm.
func (e *amEngine) serveSub() {
	m, ct, b := e.m, e.ct, e.batch
	if e.next == len(b.msgs) {
		if len(e.reply.ops) > 0 {
			m.coal.flushCont(ct, e.reply, flushSync, ct.Then(e, amBatchFlushed))
			return
		}
		e.reply.closed = true
		e.Step(amBatchFlushed)
		return
	}
	msg := b.msgs[e.next]
	if m.handlers[msg.Handler] == nil {
		panic(fmt.Sprintf("transport: node %d: no handler %d", e.nd.ID, msg.Handler))
	}
	msg.Span.Phase(telemetry.PhaseWire, b.sent, b.arrived)
	msg.Span.Phase(telemetry.PhaseCPUWait, b.arrived, e.acq)
	msg.Span.Phase(telemetry.PhaseCPUWait, e.acq, e.recv)
	e.msg, e.t0 = msg, m.K.Now()
	ct.Sleep(coalSubRecvOverhead, ct.Then(e, amSubReceived))
}

// subReceived runs the sub-message's handler once its entry cost is
// paid.
func (e *amEngine) subReceived() {
	m, msg, b := e.m, e.msg, e.batch
	msg.Span.Phase(telemetry.PhaseRecv, e.recv, e.recv+RecvOverhead)
	msg.Span.Phase(telemetry.PhaseRecv, e.t0, m.K.Now())
	msg.reply = e.reply
	msg.Batch = e.scratch
	msg.sent, msg.arrived = b.sent, b.arrived
	m.handlers[msg.Handler](e.ct, e.nd, msg, e.ct.Then(e, amSubHandled))
}
