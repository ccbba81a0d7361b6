package core

// Remote atomics (Active Access): data-centric read-modify-writes
// executed where the data lives, never staged through the initiator.
// On RDMA transports the hot path ships a NIC-executed descriptor —
// one message, no target-CPU round trip, indivisible at the target
// engine — through the same address cache, epoch guard and doorbell
// coalescing the one-sided GET/PUT paths use. The fallback (cache
// miss, stale epoch after a crash, deregistered region) is an active
// message whose handler performs the combine on the target CPU and
// piggybacks the fresh base address on the reply, so the next atomic
// to the same object goes back to the NIC path. Two combines exist:
// fetch-add, and accumulate (add with no result, the tightest-batching
// one-message-per-update primitive).

import (
	"fmt"

	"xlupc/internal/mem"
	"xlupc/internal/sim"
	"xlupc/internal/svd"
	"xlupc/internal/transport"
)

// atomicCPUCost models a CPU-side read-modify-write (the home-node
// fast path and the AM-fallback handler).
const atomicCPUCost = 200 * sim.Ns

// atomicReq asks the target to apply Op on the 8-byte word at (H, Off)
// and reply with the previous value — the AM fallback of the NIC path.
type atomicReq struct {
	H        svd.Handle
	Off      int64
	Op       transport.AtomicOp
	Delta    uint64
	WantAddr bool            // piggyback the base address on the reply
	Done     *sim.Completion // completes with the previous value (uint64)
}

// checkAtomic validates the element for the 8-byte atomics.
func checkAtomic(r Ref) {
	if r.A.l.ElemSize != 8 {
		panic(fmt.Sprintf("core: atomic op on %s with element size %d (need 8)",
			r.A.name, r.A.l.ElemSize))
	}
	r.A.check(r.Idx)
}

// rmw applies op on the 8-byte word at addr on this node, indivisibly:
// the simulation kernel runs one process at a time, so the in-place
// update cannot interleave — exactly like a processor LL/SC pair.
func (ns *nodeState) rmw(addr mem.Addr, delta uint64) uint64 {
	var w [8]byte
	ns.tn.Mem.Read(w[:], addr)
	old := byteOrder.Uint64(w[:])
	byteOrder.PutUint64(w[:], old+delta)
	ns.tn.Mem.Write(addr, w[:])
	return old
}

// --- Blocking operations -------------------------------------------------

// FetchAdd atomically adds delta to the 8-byte element at r and
// returns the element's previous value. Concurrent atomics from any
// threads never lose updates (unlike a Get/Put pair). On RDMA
// transports with a warm address cache this is one NIC-executed
// message.
func (t *Thread) FetchAdd(r Ref, delta uint64) uint64 {
	t.p.ParkWake()
	t.fetchAdd(r, delta)
	t.p.Await()
	return t.old
}

// FetchAddC is FetchAdd in continuation-passing style.
func (t *Thread) FetchAddC(r Ref, delta uint64, then func(old uint64)) {
	t.thenT = then
	t.park(pcThenOld)
	t.fetchAdd(r, delta)
}

// fetchAdd is the remote-atomic ladder: local fast path, cache-hit
// NIC descriptor, NACK healing, AM fallback — the one getRun climbs.
// It leaves the element's previous value in t.old.
func (t *Thread) fetchAdd(r Ref, delta uint64) {
	checkAtomic(r)
	a := r.A
	rn, off := a.l.Locate(r.Idx)
	op := transport.AtomicFetchAdd
	t.a, t.off, t.aop, t.a1 = a, off, op, delta

	if rn == t.ns.id {
		// Home-node fast path: shared memory, no network.
		t.localAtomic()
		return
	}

	t.rn, t.start = rn, t.Now()
	t.rt.atomicOps[op]++
	t.remote(kindAtomic, transport.AtomicOperandBytes)
}

func (t *Thread) localAtomic() {
	t.cb = t.lookupLocal(t.a)
	t.c.Sleep(t.rt.cfg.Profile.ShmLatency+atomicCPUCost, t.after(pcLocalAtomicDone))
}

func (t *Thread) localAtomicDone() {
	t.ops.LocalAtomics++
	t.old = t.ns.rmw(t.cb.LocalBase+mem.Addr(t.off), t.a1)
	t.a, t.cb = nil, nil
	t.c.Resume()
}

// atomicHit ships the NIC-executed descriptor. Its posted result buffer
// is the thread's staging word, so a blocking fetch-add allocates
// nothing.
func (t *Thread) atomicHit(base mem.Addr, ep uint32) {
	t.rt.M.RDMAAtomicSpanC(t.c, t.ns.id, t.rn, base, base+mem.Addr(t.off),
		t.aop, t.a1, t.w64[:], ep, t.span, &t.rdma, t.after(pcAtomicRDMADone))
}

func (t *Thread) atomicMiss() {
	t.park(pcAtomicFinish)
	t.amAtomic()
}

func (t *Thread) atomicRDMADone() {
	if t.rdma.OK {
		t.old = t.rdma.Old
		t.atomicFinish()
		return
	}
	t.park(pcAtomicFinish)
	t.nacked("atomic", (*Thread).amAtomic)
}

// amAtomic is the active-message atomic: the handler combines on the
// target CPU and replies with the previous value.
func (t *Thread) amAtomic() {
	t.span.SetProto("am")
	t.done = sim.NewCompletion(t.rt.K, "atomic")
	t.request(pcAMAtomicDone, t.rn, hAtomic, t.atomicReq(), transport.AtomicOperandBytes)
}

// atomicReq returns a pooled request for the atomic t has set up; the
// target handler puts it back.
func (t *Thread) atomicReq() *atomicReq {
	m := t.rt.hdr.atomic.Get()
	*m = atomicReq{H: t.a.h, Off: t.off, Op: t.aop, Delta: t.a1, WantAddr: t.ns.cache != nil, Done: t.done}
	return m
}

func (t *Thread) amAtomicDone() {
	t.old = t.done.Value().(uint64)
	t.reply()
}

// atomicFinish closes out the remote atomic: span, counters.
func (t *Thread) atomicFinish() {
	t.a = nil
	t.atomicRetired()
}

// atomicRetired charges a finished remote atomic to the thread.
func (t *Thread) atomicRetired() {
	t.span.Finish(t.Now())
	t.ops.AtomicOps++
	t.ops.AtomicTime += t.Now() - t.start
	t.span = nil
	t.c.Resume()
}

// --- Split-phase atomics -------------------------------------------------

// NbAccumulate starts a split-phase accumulate (add, no result) on the
// 8-byte element at r — the one-message-per-update primitive of the
// RandomAccess/GUPS pattern. With coalescing enabled, batched
// accumulates to one destination share a single doorbell frame; the
// update is complete once SyncAll (or a fence or barrier) retires it.
func (t *Thread) NbAccumulate(r Ref, delta uint64) {
	t.p.ParkWake()
	t.nbAccumulate(r, delta)
	t.p.Await()
}

// nbAccumulate issues one split-phase accumulate: a local combine
// completes at issue, a remote one goes NIC-descriptor (cache hit) or
// coalesced AM without waiting. NACK healing happens at retire, inside
// SyncAll, where blocking is the semantics.
func (t *Thread) nbAccumulate(r Ref, delta uint64) {
	t.nb = t.newNbOp()
	t.park(pcNbIssued)

	checkAtomic(r)
	a := r.A
	rn, off := a.l.Locate(r.Idx)
	t.a, t.off, t.aop, t.a1 = a, off, transport.AtomicAccumulate, delta
	if rn == t.ns.id {
		t.localAtomic()
		return
	}

	t.rn, t.start = rn, t.Now()
	t.rt.atomicOps[t.aop]++
	t.remote(kindNbAtomic, transport.AtomicOperandBytes)
}

func (t *Thread) nbAtomicHit(base mem.Addr, ep uint32) {
	t.rt.M.RDMAAtomicStartC(t.c, t.ns.id, t.rn, base, base+mem.Addr(t.off),
		t.aop, t.a1, nil, ep, t.span, &t.rdma, t.after(pcNbAtomicStarted))
}

func (t *Thread) nbAtomicStarted() { t.issued(subAtomicRDMA, t.rdma.Done) }

func (t *Thread) nbAtomicAM() {
	t.span.SetProto("am")
	t.done = sim.NewCompletion(t.rt.K, "atomic")
	t.rt.M.SendAMCoalescedC(t.c, t.ns.id, t.rn, hAtomic, t.atomicReq(),
		nil, transport.AtomicOperandBytes, t.span, t.after(pcNbAtomicSent))
}

func (t *Thread) nbAtomicSent() { t.issued(subAtomic, t.done) }

// --- Target-side handlers ----------------------------------------------

// handleAtomic mirrors handleGetReq: resolve, optionally pin and
// advertise, combine on the target CPU, and reply with the previous
// value plus the piggybacked base — so an AM-fallback atomic repairs
// the initiator's cache and later atomics return to the NIC path.
func (rt *Runtime) handleAtomic(ct *sim.Cont, n *transport.Node, msg *transport.Msg, then func()) {
	x := rt.serve(ct, n, msg, then)
	m := msg.Meta.(*atomicReq)
	x.translate(m.H, m.WantAddr, hcAtomicTranslated)
}

func (x *amCtx) atomicTranslated() {
	// Charge the cost first, then update in one indivisible step so
	// parallel handler contexts (LAPI) cannot interleave mid-RMW.
	x.ct.Sleep(atomicCPUCost, x.after(hcAtomicApplied))
}

func (x *amCtx) atomicApplied() {
	m := x.msg.Meta.(*atomicReq)
	old := x.ns.rmw(x.cb.LocalBase+mem.Addr(m.Off), m.Delta)
	rep, extra := reply{H: m.H, Base: x.base, Epoch: x.epoch, Done: m.Done, Val: old}, m.Op.ResultBytes()
	x.rt.hdr.atomic.Put(m)
	x.answer(rep, nil, extra)
}
