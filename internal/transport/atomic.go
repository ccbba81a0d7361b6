package transport

import (
	"encoding/binary"

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

// AtomicOp selects what an RMW request returns. Both add the request's
// delta to the 8-byte word at the target; the op numbers are the ones
// flight records carry.
type AtomicOp uint8

const (
	// AtomicFetchAdd returns the previous value.
	AtomicFetchAdd AtomicOp = 0
	// AtomicAccumulate returns nothing — the response carries no data
	// word, so accumulations batch tighter.
	AtomicAccumulate AtomicOp = 2
)

func (op AtomicOp) String() string {
	switch op {
	case AtomicFetchAdd:
		return "fetchadd"
	case AtomicAccumulate:
		return "accumulate"
	}
	return "unknown"
}

// AtomicOperandBytes is the operand payload riding with an RMW request:
// the delta.
const AtomicOperandBytes = 8

// ResultBytes is the data carried by the completion response.
func (op AtomicOp) ResultBytes() int {
	if op == AtomicAccumulate {
		return 0
	}
	return 8
}

// atomicOrder is the wire encoding of the 8-byte word, matching the
// runtime's element encoding so NIC-side and CPU-side updates of the
// same word agree.
var atomicOrder = binary.LittleEndian

// RDMAAtomicSpanC adds delta to the 8-byte word at raddr in dst's
// memory on behalf of thread ct: then runs once the result has
// returned, with res.Old the word's previous value (zero for
// AtomicAccumulate) or, when the target NACKed (stale epoch or
// deregistered region), res.OK false and the caller left to heal and
// fall back to the active-message path. fetch, when non-nil, is the
// posted 8-byte result buffer. The steps are RDMAGetSpanC's.
func (m *Machine) RDMAAtomicSpanC(ct *sim.Cont, src, dst int, base, raddr mem.Addr, aop AtomicOp, delta uint64, fetch []byte, epoch uint32, span *telemetry.Span, res *RDMAResult, then func()) {
	op := m.newDMA(dmaRMW, src, base, raddr, fetch, epoch, span)
	op.aop, op.delta = aop, delta
	m.postRead(ct, txAtomic, src, dst, RDMADescBytes+AtomicOperandBytes, op, res, then)
}

// RDMAAtomicStartC issues a NIC atomic without waiting for it: then
// runs once the descriptor is injected (or parked in the doorbell
// batch, so batched atomics to one destination share a single frame),
// and res.Done fires at the initiator with the old value ([]byte, nil
// for accumulations) or a Nack, after the RDMA-mode extra latency.
func (m *Machine) RDMAAtomicStartC(ct *sim.Cont, src, dst int, base, raddr mem.Addr, aop AtomicOp, delta uint64, fetch []byte, epoch uint32, span *telemetry.Span, res *RDMAResult, then func()) {
	op := m.newDMA(dmaRMW, src, base, raddr, fetch, epoch, span)
	op.aop, op.delta = aop, delta
	res.Done = m.nbResult(op)
	m.startDMA(ct, src, dst, RDMADescBytes+AtomicOperandBytes, op, then)
}
