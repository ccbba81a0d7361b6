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
// to the same object goes back to the NIC path. The one combine is
// fetch-add.

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

// atomicReq asks the target to add Delta to the 8-byte word at
// (H, Off) — the AM fallback of the NIC path. The target writes the
// word's previous value into Old and sends the record back as the
// answer, like an rts: the initiator step that reads it puts it back.
type atomicReq struct {
	H        svd.Handle
	Off      int64
	Delta    uint64
	WantAddr bool            // piggyback the base address on the reply
	Done     *sim.Completion // completed with this record at the initiator
	Old      uint64          // the word's previous value
}

// checkAtomic validates the element for the 8-byte atomics.
func checkAtomic(r Ref) {
	if r.A.l.ElemSize != 8 {
		panic(fmt.Sprintf("core: atomic op on %s with element size %d (need 8)",
			r.A.name, r.A.l.ElemSize))
	}
	r.A.check(r.Idx)
}

// rmw adds delta to the 8-byte word at addr on this node, indivisibly:
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
	t.stage(r, nil)
	t.a1 = delta
	t.p.Await(t, pcStartFetchAdd)
	return t.old
}

func (t *Thread) startFetchAdd() {
	r, _ := t.unstage()
	t.fetchAdd(r, t.a1)
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
	t.a, t.off, t.a1 = a, off, delta

	if rn == t.ns.id {
		// Home-node fast path: shared memory, no network.
		t.localAtomic()
		return
	}

	t.rn, t.start = rn, t.Now()
	t.rt.atomicOps++
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
		t.a1, t.w64[:], ep, t.span, &t.rdma, t.after(pcAtomicRDMADone))
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
// target CPU and sends the pooled request back with the previous value.
func (t *Thread) amAtomic() {
	t.span.SetProto("am")
	t.done = sim.NewCompletion(t.rt.K, "atomic")
	m := t.rt.hdr.atomic.Get()
	*m = atomicReq{H: t.a.h, Off: t.off, Delta: t.a1, WantAddr: t.ns.cache != nil, Done: t.done}
	t.request(pcAMAtomicDone, t.rn, hAtomic, m, transport.AtomicOperandBytes)
}

func (t *Thread) amAtomicDone() {
	m := t.done.Value().(*atomicReq)
	t.old = m.Old
	t.rt.hdr.atomic.Put(m)
	t.reply()
}

// atomicFinish closes out the remote atomic: span, counters.
func (t *Thread) atomicFinish() {
	t.a = nil
	t.span.Finish(t.Now())
	t.ops.AtomicOps++
	t.ops.AtomicTime += t.Now() - t.start
	t.span = nil
	t.c.Resume()
}

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
	m.Old = x.ns.rmw(x.cb.LocalBase+mem.Addr(m.Off), m.Delta)
	x.answer(reply{H: m.H, Base: x.base, Epoch: x.epoch, Done: m.Done, Val: m}, nil, transport.AtomicResultBytes)
}
