package transport

import (
	"fmt"

	"xlupc/internal/fabric"
	"xlupc/internal/fault"
	"xlupc/internal/flight"
	"xlupc/internal/pool"
	"xlupc/internal/sim"
	"xlupc/internal/telemetry"
)

// RelConfig tunes the reliable-delivery layer: sequence numbers and
// ACKs on every AM and RDMA injection, virtual-time retransmit timers
// with exponential backoff, and a retry budget whose exhaustion
// surfaces as a TransportError instead of a silent deadlock.
type RelConfig struct {
	// RTO is the initial retransmit timeout; it doubles per attempt.
	RTO sim.Time
	// MaxRetries bounds the retransmissions of one packet. Exceeding it
	// fails the run fast with a TransportError.
	MaxRetries int
	// HeaderBytes is the wire overhead of the seq/ACK framing added to
	// every packet.
	HeaderBytes int
}

// DefaultRelConfig returns the reliability parameters used by the
// chaos tooling: an RTO comfortably above any profile's clean
// roundtrip, and a budget deep enough that only a truly dead link
// exhausts it (8 doublings of 40 µs ≈ 10 ms of patience).
func DefaultRelConfig() RelConfig {
	return RelConfig{RTO: 40 * sim.Us, MaxRetries: 8, HeaderBytes: 8}
}

// TransportError is the typed failure of the reliable-delivery layer:
// one packet exhausted its retry budget. core.Runtime.Run converts it
// into a clean abort of the whole run.
type TransportError struct {
	Class    string   // "am" or "dma": the packet's flight.Class
	Src, Dst int      // endpoints of the dead channel
	Seq      uint64   // channel sequence number of the abandoned packet
	Attempts int      // transmissions attempted (1 original + retries)
	At       sim.Time // virtual time the budget ran out
}

func (e *TransportError) Error() string {
	return fmt.Sprintf("transport: %s packet %d->%d seq=%d undeliverable after %d attempts at %v",
		e.Class, e.Src, e.Dst, e.Seq, e.Attempts, e.At)
}

// relKey identifies one packet across the cluster: its channel, its
// per-channel sequence number, and the sender incarnation the sequence
// belongs to — a restarted node's sequence numbers start over at a new
// epoch, so they can never collide with packets (or receiver-side dedup
// state) of its previous life. Seq and epoch travel in the packet's
// fabric.Header.
type relKey struct {
	src, dst int32
	seq      uint64
	epoch    uint32
}

// relChan is one (src,dst,epoch) channel as its receiver sees it.
type relChan struct {
	src, dst int32
	epoch    uint32
}

// relWindow is what a receiver has delivered of one channel: every
// sequence number below next, and those in above. Senders number a
// channel's packets 0, 1, 2, … and retransmit each until it arrives, so
// next keeps up and above stays small: dedup state grows with the
// channels, not with the packets.
type relWindow struct {
	next  uint64
	above map[uint64]struct{}
}

// deliver records seq as delivered and reports whether it already was.
func (w *relWindow) deliver(seq uint64) (dup bool) {
	if seq < w.next {
		return true
	}
	if _, ok := w.above[seq]; ok {
		return true
	}
	if seq > w.next {
		if w.above == nil {
			w.above = make(map[uint64]struct{})
		}
		w.above[seq] = struct{}{}
		return false
	}
	for w.next++; len(w.above) > 0; w.next++ {
		if _, ok := w.above[w.next]; !ok {
			break
		}
		delete(w.above, w.next)
	}
	return false
}

// relPacket is one framed packet on its sender's side: what a
// retransmission re-sends — the inner transport message, its framed size
// and class, the operation's span — and the retransmission state. The
// wire copies carry their header by value and the inner object by
// pointer, never the record, so the record's one owner is its sender:
// it is retired when the ACK lands, or after a retransmission in
// progress then has left the TX port, and recycled once its cancelled
// timer has left the kernel's queue (see newPacket). Its steps are bound
// once per record, so a packet's life allocates nothing.
type relPacket struct {
	rl      *reliability
	key     relKey
	class   fabric.Class
	wire    int // framed wire size (inner + header)
	inner   any
	span    *telemetry.Span
	done    func(arrive sim.Time) // the first injection's sender, until it is on the wire
	tm      sim.Timer
	rto     sim.Time // current timeout (doubles per retry)
	attempt int      // retransmissions performed so far
	lastTx  sim.Time // when the latest copy went on the wire
	acked   bool     // ACK received: a retransmit still on the TX port must not re-arm
	onTX    bool     // a retransmission is waiting for, or holding, the TX port

	sent, retxSent       func(arrive sim.Time)
	expireFn, injectRetx func()
}

// hdr is the packet's wire header.
func (pk *relPacket) hdr() fabric.Header {
	return fabric.Header{Seq: pk.key.seq, Epoch: pk.key.epoch}
}

// relAck is one ACK on its way onto the wire from the receiver that
// sends it: the record lives until the ACK is serialized; the copy on
// the wire is the header alone.
type relAck struct {
	rl       *reliability
	from, to int // ACK sender (the data packet's receiver) and destination
	h        fabric.Header
	tx       *sim.Resource

	inject func()
	sent   func(arrive sim.Time)
}

// RelStats counts the reliable layer's work: a view over the flight
// record, one field per event kind.
type RelStats struct {
	Retransmits   int64 // timer-driven re-injections
	DupSuppressed int64 // replayed packets discarded at the target
	Acks          int64 // acknowledgements sent
	CorruptDrops  int64 // arrivals discarded by the integrity check
	Parked        int64 // expiries deferred against a peer's restart timer
}

// reliability is the machine-wide reliable-delivery state. The
// simulation kernel serializes all access, so no locking is needed.
type reliability struct {
	m   *Machine
	cfg RelConfig

	nextSeq  map[uint64]uint64 // channel (src<<32|dst) -> next seq
	inflight map[relKey]*relPacket
	seen     map[relChan]*relWindow // receiver-side dedup

	// Retired packets wait in cooling[coolHead:], oldest first, until
	// their cancelled timers have left the kernel's queue; then they go
	// to pkts.
	pkts     pool.Free[relPacket]
	cooling  []*relPacket
	coolHead int
	acks     pool.Free[relAck]

	failed *TransportError // first exhausted budget; ends the run
}

// EnableChaos installs the reliable-delivery layer and, when inj is
// non-nil, the fault injector. Every AM and RDMA injection is framed
// with a sequence number, ACKed by the receiver, deduplicated on
// replay, and retransmitted with exponential backoff per rc. Must be
// called before the simulation starts.
func (m *Machine) EnableChaos(inj *fault.Injector, rc RelConfig) {
	rl := &reliability{
		m:        m,
		cfg:      rc,
		nextSeq:  make(map[uint64]uint64),
		inflight: make(map[relKey]*relPacket),
		seen:     make(map[relChan]*relWindow),
	}
	m.rel = rl
	if inj != nil {
		m.Fab.SetInjector(inj)
	}
	m.Fab.SetDeliveryHook(rl.deliver)
}

// RelStats reports the reliable layer's counters (zero when disabled).
func (m *Machine) RelStats() RelStats {
	return RelStats{
		Retransmits:   m.FR.Total(flight.KindRetransmit),
		DupSuppressed: m.FR.Total(flight.KindDupSuppress),
		Acks:          m.FR.Total(flight.KindAck),
		CorruptDrops:  m.FR.Total(flight.KindCorruptDrop),
		Parked:        m.FR.Total(flight.KindPark),
	}
}

// FatalError returns the transport failure that ended the run, if any.
func (m *Machine) FatalError() *TransportError {
	if m.rel == nil {
		return nil
	}
	return m.rel.failed
}

// newPacket frames inner as the next packet of the (src,dst) channel,
// under the sender's current incarnation epoch.
func (rl *reliability) newPacket(src, dst int, wire int, class fabric.Class, inner any, span *telemetry.Span) *relPacket {
	rl.cool()
	pk := rl.pkts.Get()
	if pk.rl == nil {
		pk.rl = rl
		pk.sent, pk.retxSent = pk.onWire, pk.retransmitted
		pk.expireFn, pk.injectRetx = pk.expire, pk.retransmit
	}
	ch := uint64(src)<<32 | uint64(uint32(dst))
	seq := rl.nextSeq[ch]
	rl.nextSeq[ch] = seq + 1
	pk.key = relKey{src: int32(src), dst: int32(dst), seq: seq, epoch: rl.m.Nodes[src].Epoch}
	pk.class, pk.wire, pk.inner, pk.span = class, wire+rl.cfg.HeaderBytes, inner, span
	pk.attempt, pk.acked, pk.onTX = 0, false, false
	return pk
}

// retire ends the sender's ownership of an ACKed packet that no
// retransmission holds: it cools until its cancelled timer is gone.
func (rl *reliability) retire(pk *relPacket) {
	pk.inner, pk.span = nil, nil
	rl.cooling = append(rl.cooling, pk)
}

// cool recycles the retired packets, oldest first, whose timers have
// left the queue. The FIFO keeps its backing array: it is reset when
// drained and compacted when mostly consumed.
func (rl *reliability) cool() {
	q := rl.cooling
	for rl.coolHead < len(q) && !q[rl.coolHead].tm.Queued() {
		rl.pkts.Put(q[rl.coolHead])
		q[rl.coolHead] = nil
		rl.coolHead++
	}
	switch {
	case rl.coolHead == len(q):
		rl.cooling, rl.coolHead = q[:0], 0
	case rl.coolHead >= 64 && 2*rl.coolHead >= len(q):
		n := copy(q, q[rl.coolHead:])
		clear(q[n:])
		rl.cooling, rl.coolHead = q[:n], 0
	}
}

// peerReset handles a node crash: the node's NIC lost its sender-side
// sequence counters, so every channel it originates restarts at seq 0 —
// in its new epoch, which keeps the restarted stream disjoint from the
// old one at every receiver. In-flight packets FROM the node and
// receiver-side dedup state of the old incarnation are kept: the
// simulated runtime's compute state survives the crash (a warm restart
// from checkpoint), so its outstanding operations must still complete.
func (rl *reliability) peerReset(node int) {
	for ch := range rl.nextSeq {
		if int(ch>>32) == node {
			delete(rl.nextSeq, ch)
		}
	}
}

// inject puts obj on the wire from src, through the reliable layer
// when it is on (fabric.InjectC semantics either way).
func (m *Machine) inject(src, dst, wire int, class fabric.Class, obj any, span *telemetry.Span, done func(arrive sim.Time)) {
	if m.rel != nil {
		m.rel.injectC(src, dst, wire, class, obj, span, done)
		return
	}
	m.Fab.InjectC(src, dst, wire, class, obj, done)
}

// injectC frames inner and sends it (fabric.InjectC semantics: the
// caller holds src's TX through done, which receives the nominal
// arrival time).
func (rl *reliability) injectC(src, dst int, wire int, class fabric.Class, inner any, span *telemetry.Span, done func(arrive sim.Time)) {
	pk := rl.newPacket(src, dst, wire, class, inner, span)
	pk.done = done
	rl.m.Fab.InjectHdrC(src, dst, pk.wire, class, pk.hdr(), inner, pk.sent)
}

// onWire runs once the first copy is serialized: track the packet for
// retransmission, arm its timer, continue the sender.
func (pk *relPacket) onWire(arrive sim.Time) {
	rl, done := pk.rl, pk.done
	pk.done = nil
	pk.rto, pk.lastTx = rl.cfg.RTO, rl.m.K.Now()
	rl.inflight[pk.key] = pk
	pk.arm(pk.rto)
	done(arrive)
}

func (pk *relPacket) arm(d sim.Time) { pk.rl.m.K.ArmTimer(&pk.tm, d, pk.expireFn) }

// expire handles a retransmit timeout: re-inject with doubled RTO, or
// fail the run once the budget is gone.
func (pk *relPacket) expire() {
	rl := pk.rl
	rl.pkts.Live(pk)
	if rl.failed != nil {
		return // the run is already aborting
	}
	m, key := rl.m, pk.key
	if du := m.Fab.DownUntil(int(key.dst)); du > m.K.Now() {
		// The peer is mid-restart: a retransmit now is guaranteed to be
		// dropped at its dead NIC, so burning retry budget on it would
		// turn every crash into a spurious TransportError. Park the
		// packet against the restart timer instead — attempt count and
		// RTO are untouched, and the real retransmit happens (and
		// records its retry phase) once the peer is back.
		m.FR.Record(int(key.src), flight.Event{
			T: m.K.Now(), Kind: flight.KindPark, Class: pk.class.Flight(),
			Src: key.src, Dst: key.dst, Seq: key.seq, Arg: int64(du),
		})
		pk.arm(du - m.K.Now())
		return
	}
	if pk.attempt >= rl.cfg.MaxRetries {
		rl.failed = &TransportError{
			Class: pk.class.Flight().String(),
			Src:   int(key.src), Dst: int(key.dst), Seq: key.seq,
			Attempts: pk.attempt + 1, At: m.K.Now(),
		}
		m.FR.Record(int(key.src), flight.Event{
			T: m.K.Now(), Kind: flight.KindRetryFail, Class: pk.class.Flight(),
			Src: key.src, Dst: key.dst, Seq: key.seq, Arg: int64(pk.attempt + 1),
		})
		m.K.Stop()
		return
	}
	pk.attempt++
	pk.rto *= 2
	m.FR.Record(int(key.src), flight.Event{
		T: m.K.Now(), Kind: flight.KindRetransmit, Class: pk.class.Flight(),
		Src: key.src, Dst: key.dst, Seq: key.seq, Arg: int64(pk.attempt),
	})
	pk.span.Phase(telemetry.PhaseRetry, pk.lastTx, m.K.Now())
	pk.onTX = true
	m.Fab.Port(int(key.src)).TX.AcquireC(pk.injectRetx)
}

// retransmit runs holding the sender's TX port: the copy goes on the
// wire with the packet's own header.
func (pk *relPacket) retransmit() {
	pk.rl.m.Fab.InjectHdrC(int(pk.key.src), int(pk.key.dst), pk.wire, pk.class, pk.hdr(), pk.inner, pk.retxSent)
}

// retransmitted runs once the copy is serialized: free the port and
// re-arm the timer, unless the ACK of an earlier copy arrived while this
// one waited for TX or serialized — it dropped the packet from inflight,
// so a timer armed now could never be cancelled, and the packet is
// retired here instead.
func (pk *relPacket) retransmitted(sim.Time) {
	rl := pk.rl
	rl.m.Fab.Port(int(pk.key.src)).TX.Release()
	pk.onTX = false
	if pk.acked {
		rl.retire(pk)
		return
	}
	pk.lastTx = rl.m.K.Now()
	pk.arm(pk.rto)
}

// deliver is the fabric delivery hook: every physical arrival in the
// cluster lands here, in kernel context, at its arrival time. An ACK is
// a header alone; a data packet's header names it, and its inner object
// is read only on its first delivery.
func (rl *reliability) deliver(src, dst int, class fabric.Class, h fabric.Header, inner any) {
	switch {
	case h.Corrupt:
		// Integrity check failed: discard without ACK; the sender's
		// timer retransmits. Applies to data and ACKs alike.
		if h.Ack {
			rl.m.FR.Record(dst, flight.Event{
				T: rl.m.K.Now(), Kind: flight.KindCorruptDrop,
				Src: -1, Dst: int32(dst),
			})
			return
		}
		rl.m.FR.Record(dst, flight.Event{
			T: rl.m.K.Now(), Kind: flight.KindCorruptDrop, Class: class.Flight(),
			Src: int32(src), Dst: int32(dst), Seq: h.Seq,
		})
	case h.Ack:
		// The ACK travels dst -> src of the packet it acknowledges.
		key := relKey{int32(dst), int32(src), h.Seq, h.Epoch}
		if pk, ok := rl.inflight[key]; ok {
			pk.tm.Cancel()
			pk.acked = true
			delete(rl.inflight, key)
			if !pk.onTX {
				rl.retire(pk)
			}
		} // else: duplicate or late ACK, harmless
	default:
		// Always ACK — a replay means the first ACK was lost, and only
		// a fresh one stops the sender's timer.
		rl.sendAck(src, dst, class, h)
		ch := relChan{int32(src), int32(dst), h.Epoch}
		w := rl.seen[ch]
		if w == nil {
			w = &relWindow{}
			rl.seen[ch] = w
		}
		if w.deliver(h.Seq) {
			rl.m.FR.Record(dst, flight.Event{
				T: rl.m.K.Now(), Kind: flight.KindDupSuppress, Class: class.Flight(),
				Src: int32(src), Dst: int32(dst), Seq: h.Seq,
			})
			return
		}
		port := rl.m.Fab.Port(dst)
		if class == fabric.ClassDMA {
			port.DMA.Push(inner)
		} else {
			port.AM.Push(inner)
		}
	}
}

// sendAck returns an acknowledgement of the packet (src -> dst, header
// h) to its sender, competing for the receiving node's TX port like any
// other injection. The ACK itself crosses the faulty fabric (droppable,
// corruptible); a lost ACK costs one retransmission, which dedup
// absorbs.
func (rl *reliability) sendAck(src, dst int, class fabric.Class, h fabric.Header) {
	m := rl.m
	m.FR.Record(dst, flight.Event{
		T: m.K.Now(), Kind: flight.KindAck, Class: class.Flight(),
		Src: int32(src), Dst: int32(dst), Seq: h.Seq,
	})
	a := rl.acks.Get()
	if a.rl == nil {
		a.rl = rl
		a.inject, a.sent = a.injectNow, a.onWire
	}
	a.from, a.to, a.h, a.tx = dst, src, fabric.Header{Seq: h.Seq, Epoch: h.Epoch, Ack: true}, m.Fab.Port(dst).TX
	a.tx.AcquireC(a.inject)
}

func (a *relAck) injectNow() {
	a.rl.m.Fab.InjectHdrC(a.from, a.to, AckBytes, fabric.ClassDMA, a.h, nil, a.sent)
}

func (a *relAck) onWire(sim.Time) {
	rl, tx := a.rl, a.tx
	a.tx = nil
	rl.acks.Put(a)
	tx.Release()
}
