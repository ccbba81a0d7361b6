package transport

import (
	"encoding/binary"

	"xlupc/internal/mem"
	"xlupc/internal/sim"
	"xlupc/internal/telemetry"
)

// Remote atomics (Active Access): a fetch-add descriptor the target's
// DMA engine executes in place, with no target-CPU round trip. The
// engine services one descriptor at a time, so the update is
// indivisible against every other NIC-executed atomic and RDMA op on
// the node — the simulated counterpart of a NIC atomic unit. The op
// class travels exactly like GET/PUT descriptors: same wire class,
// same epoch guard against crashed target incarnations, and (via the
// reliable layer's receiver dedup keyed on (src,dst,seq,epoch))
// exactly-once under retransmit.

// AtomicOperandBytes is the operand payload riding with a fetch-add
// request: the delta.
const AtomicOperandBytes = 8

// AtomicResultBytes is the data carried by a fetch-add's completion:
// the word's previous value.
const AtomicResultBytes = 8

// atomicFetchAddArg is the Arg of a KindAtomic flight record: the op
// number fetch-add has always been recorded under.
const atomicFetchAddArg = 0

// atomicOrder is the wire encoding of the 8-byte word, matching the
// runtime's element encoding so NIC-side and CPU-side updates of the
// same word agree.
var atomicOrder = binary.LittleEndian

// RDMAAtomicSpanC adds delta to the 8-byte word at raddr in dst's
// memory on behalf of thread ct: then runs once the result has
// returned, with res.Old the word's previous value, also written to
// the posted 8-byte result buffer fetch, or, when the target NACKed
// (stale epoch or deregistered region), res.OK false and the caller
// left to heal and fall back to the active-message path. The steps are
// RDMAGetSpanC's.
func (m *Machine) RDMAAtomicSpanC(ct *sim.Cont, src, dst int, base, raddr mem.Addr, delta uint64, fetch []byte, epoch uint32, span *telemetry.Span, res *RDMAResult, then func()) {
	op := m.newDMA(dmaRMW, src, base, raddr, fetch, epoch, span)
	op.delta = delta
	m.postRead(ct, txAtomic, src, dst, RDMADescBytes+AtomicOperandBytes, op, res, then)
}
