package transport

import (
	"encoding/binary"
	"fmt"

	"xlupc/internal/flight"
	"xlupc/internal/mem"
	"xlupc/internal/sim"
	"xlupc/internal/telemetry"
)

// Remote atomics (Active Access): read-modify-write descriptors the
// target's DMA engine executes in place, with no target-CPU round
// trip. The engine services one descriptor at a time, so the update is
// indivisible against every other NIC-executed atomic and RDMA op on
// the node — the simulated counterpart of a NIC atomic unit. The op
// class travels exactly like GET/PUT descriptors: same wire class,
// same doorbell coalescing, same epoch guard against crashed target
// incarnations, and (via the reliable layer's receiver dedup keyed on
// (src,dst,seq,epoch)) exactly-once under retransmit.

// AtomicOp selects the target-side combine function of a dmaAtomic.
type AtomicOp uint8

const (
	// AtomicFetchAdd adds Arg1 to the 8-byte word and returns the
	// previous value.
	AtomicFetchAdd AtomicOp = iota
	// AtomicCompareSwap installs Arg2 iff the word equals Arg1, and
	// returns the previous value either way.
	AtomicCompareSwap
	// AtomicAccumulate adds Arg1 and returns nothing — the response
	// carries no data word, so accumulations batch tighter.
	AtomicAccumulate
)

func (op AtomicOp) String() string {
	switch op {
	case AtomicFetchAdd:
		return "fetchadd"
	case AtomicCompareSwap:
		return "cas"
	case AtomicAccumulate:
		return "accumulate"
	}
	return "unknown"
}

// OperandBytes is the operand payload riding with the descriptor.
func (op AtomicOp) OperandBytes() int {
	if op == AtomicCompareSwap {
		return 16 // expected + replacement
	}
	return 8
}

// ResultBytes is the data carried by the completion response.
func (op AtomicOp) ResultBytes() int {
	if op == AtomicAccumulate {
		return 0
	}
	return 8
}

// Apply is the combine function, executed at the target engine.
func (op AtomicOp) Apply(old, arg1, arg2 uint64) uint64 {
	switch op {
	case AtomicFetchAdd, AtomicAccumulate:
		return old + arg1
	case AtomicCompareSwap:
		if old == arg1 {
			return arg2
		}
		return old
	}
	panic(fmt.Sprintf("transport: bad atomic op %d", op))
}

// atomicOrder is the wire encoding of the 8-byte word, matching the
// runtime's element encoding so NIC-side and CPU-side updates of the
// same word agree.
var atomicOrder = binary.LittleEndian

// dmaAtomic is a NIC-executed read-modify-write descriptor. fetch is
// the initiator-posted 8-byte result buffer (like dmaGet.dst): the
// engine deposits the previous value there and the response aliases
// it, so a fetching atomic allocates nothing per op. Accumulations
// leave it nil.
type dmaAtomic struct {
	initiator int
	base      mem.Addr // pinned-region base, for the pin-table check
	raddr     mem.Addr
	op        AtomicOp
	arg1      uint64 // delta (fetch-add/accumulate) or expected (CAS)
	arg2      uint64 // replacement (CAS only)
	fetch     []byte
	epoch     uint32          // target incarnation the initiator believes in
	done      *sim.Completion // completes with the old value ([]byte) or a Nack

	span    *telemetry.Span
	sent    sim.Time
	arrived sim.Time
}

func (m *Machine) newDMAAtomic() *dmaAtomic {
	if m.rel == nil {
		if n := len(m.pool.atomics); n > 0 {
			op := m.pool.atomics[n-1]
			m.pool.atomics = m.pool.atomics[:n-1]
			return op
		}
	}
	return &dmaAtomic{}
}

func (m *Machine) freeDMAAtomic(op *dmaAtomic) {
	if m.rel != nil {
		return
	}
	*op = dmaAtomic{}
	m.pool.atomics = append(m.pool.atomics, op)
}

// RDMAAtomicSpanC executes aop on the 8-byte word at raddr in dst's
// memory on behalf of thread ct: then runs once the result has
// returned, with res.Old the word's previous value (zero for
// AtomicAccumulate) or, when the target NACKed (stale epoch or
// deregistered region), res.OK false and the caller left to heal and
// fall back to the active-message path. fetch, when non-nil, is the
// posted 8-byte result buffer. The steps are RDMAGetSpanC's.
func (m *Machine) RDMAAtomicSpanC(ct *sim.Cont, src, dst int, base, raddr mem.Addr, aop AtomicOp, arg1, arg2 uint64, fetch []byte, epoch uint32, span *telemetry.Span, res *RDMAResult, then func()) {
	done := sim.NewCompletion(m.K, "rdma-atomic")
	op := m.newDMAAtomic()
	*op = dmaAtomic{initiator: src, base: base, raddr: raddr, op: aop, arg1: arg1, arg2: arg2, fetch: fetch, epoch: epoch, done: done, span: span}
	m.postRead(ct, txAtomic, src, dst, m.Prof.RDMADescBytes+aop.OperandBytes(), op, done, span, res, then)
}

// RDMAAtomicStartC issues a NIC atomic without waiting for it: then
// runs once the descriptor is injected (or parked in the doorbell
// batch, so batched atomics to one destination share a single frame),
// and res.Done fires at the initiator with the old value ([]byte, nil
// for accumulations) or a Nack, after the RDMA-mode extra latency.
func (m *Machine) RDMAAtomicStartC(ct *sim.Cont, src, dst int, base, raddr mem.Addr, aop AtomicOp, arg1, arg2 uint64, fetch []byte, epoch uint32, span *telemetry.Span, res *RDMAResult, then func()) {
	done := sim.NewCompletion(m.K, "rdma-atomic")
	res.Done = m.nbResult(done, "atomic", span)
	op := m.newDMAAtomic()
	*op = dmaAtomic{initiator: src, base: base, raddr: raddr, op: aop, arg1: arg1, arg2: arg2, fetch: fetch, epoch: epoch, done: done, span: span}
	m.startDMA(ct, src, dst, m.Prof.RDMADescBytes+aop.OperandBytes(), op, span, then)
}

// serveAtomic starts engine service of an atomic descriptor — the
// same two-step shape as serveGet.
func (e *dmaEngine) serveAtomic(op *dmaAtomic) {
	op.span.Phase(telemetry.PhaseWire, op.sent, op.arrived)
	e.curAtomic = op
	e.t0 = e.m.K.Now()
	e.m.K.After(e.m.Prof.RDMATargetCost, e.serveAtomicFn)
}

// serveAtomic2 is the post-service-time step: epoch guard, pin check,
// then the indivisible read-modify-write on target memory. The engine
// is single-served, so no other descriptor can interleave mid-RMW.
func (e *dmaEngine) serveAtomic2() {
	m, k := e.m, e.m.K
	op, t0 := e.curAtomic, e.t0
	e.curAtomic = nil
	op.span.Phase(telemetry.PhaseDMATarget, op.arrived, t0)
	op.span.Phase(telemetry.PhaseDMATarget, t0, k.Now())
	if op.epoch != e.nd.Epoch {
		m.noteStale("atomic")
		e.recordNack(flight.KindStaleNack, op.initiator, uint64(op.epoch))
		resp := m.newDMAResp()
		*resp = dmaResp{done: op.done, val: Nack{Stale: true, Epoch: e.nd.Epoch}, span: op.span}
		e.sendResp(op.initiator, m.Prof.RDMADescBytes, resp)
		m.freeDMAAtomic(op)
		return
	}
	m.noteRecovered(e.nd.ID)
	if !e.nd.Pins.TouchOK(op.base, k.Now()) {
		if e.nd.Pins.Policy() != mem.PinLimited {
			panic(fmt.Sprintf("transport: node %d: RDMA atomic to unpinned region %#x under pin-all", e.nd.ID, op.base))
		}
		e.recordNack(flight.KindPinNack, op.initiator, uint64(op.base))
		resp := m.newDMAResp()
		*resp = dmaResp{done: op.done, val: Nack{}, span: op.span}
		e.sendResp(op.initiator, m.Prof.RDMADescBytes, resp)
		m.freeDMAAtomic(op)
		return
	}
	e.nd.Mem.Read(e.w64[:], op.raddr)
	old := atomicOrder.Uint64(e.w64[:])
	atomicOrder.PutUint64(e.w64[:], op.op.Apply(old, op.arg1, op.arg2))
	e.nd.Mem.Write(op.raddr, e.w64[:])
	m.FR.Record(e.nd.ID, flight.Event{
		T: k.Now(), Kind: flight.KindAtomic, Class: flight.ClassDMA,
		Src: int32(op.initiator), Dst: int32(e.nd.ID),
		Seq: uint64(op.raddr), Arg: int64(op.op),
	})
	resp := m.newDMAResp()
	if op.fetch != nil {
		atomicOrder.PutUint64(op.fetch, old)
		*resp = dmaResp{done: op.done, data: op.fetch, span: op.span}
	} else {
		*resp = dmaResp{done: op.done, data: nil, span: op.span}
	}
	e.sendResp(op.initiator, m.Prof.RDMADescBytes+op.op.ResultBytes(), resp)
	m.freeDMAAtomic(op)
}
