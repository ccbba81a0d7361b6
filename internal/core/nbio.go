package core

import (
	"xlupc/internal/mem"
	"xlupc/internal/sim"
	"xlupc/internal/telemetry"
	"xlupc/internal/transport"
)

// Handle identifies one split-phase operation started with NbGet or
// NbPut. Sync retires it: for a GET, the destination buffer is valid
// only after Sync returns; for a PUT, the source data is captured at
// issue time, and Sync (or a fence/barrier, which retires every
// outstanding handle) guarantees target visibility. The zero Handle —
// returned for empty or fully local transfers whose work completed at
// issue — is valid and retires as a no-op.
type Handle struct {
	op  *nbOp
	gen uint32
}

// Valid reports whether the handle refers to a still-tracked operation.
// Handles to retired (and since recycled) operations report false.
func (h Handle) Valid() bool { return h.op != nil && h.op.gen == h.gen }

// nbOp is the per-handle state: one sub-operation per remote
// single-affinity run of the transfer, retired in issue order.
// Descriptors are recycled through the issuing thread's free list; gen
// is bumped on recycle so a stale Handle can never alias a newer
// operation.
type nbOp struct {
	subs    []nbSub
	retired bool
	gen     uint32
}

// What a sub-operation is, which decides its retire work.
const (
	subGet        = iota // eager GET: done carries the reply
	subGetRDMA           // one-sided GET: done carries the data or a Nack
	subPut               // PUT, either way: done fires at target visibility
	subAtomic            // AM atomic: done carries the previous value
	subAtomicRDMA        // NIC atomic: done carries it, or a Nack
)

// nbSub is one remote run of a split-phase operation: the completion
// the issuing thread waits on at Sync, and what the retire work that
// runs once it fires needs — where to copy the data out to, what to
// redo over the active-message path after a Nack, the span to finish
// and the issue time the thread's counters are charged from.
type nbSub struct {
	kind   int
	done   *sim.Completion
	a      *SharedArray
	rn     int
	off    int64
	dst    []byte  // GET: the caller's buffer
	out    *uint64 // atomic: where the previous value goes, if anywhere
	aop    transport.AtomicOp
	a1, a2 uint64
	span   *telemetry.Span
	start  sim.Time
}

// newNbOp takes a descriptor from the thread's free list (or allocates
// the first time); freeNbOp returns one after retire, bumping the
// generation so outstanding Handles to it turn invalid.
func (t *Thread) newNbOp() *nbOp {
	if n := len(t.nbPool); n > 0 {
		op := t.nbPool[n-1]
		t.nbPool[n-1] = nil
		t.nbPool = t.nbPool[:n-1]
		return op
	}
	return &nbOp{}
}

func (t *Thread) freeNbOp(op *nbOp) {
	op.gen++
	op.retired = false
	clear(op.subs)
	op.subs = op.subs[:0]
	t.nbPool = append(t.nbPool, op)
}

// NbGet starts a split-phase read of len(dst) bytes of consecutive
// elements at r (the non-blocking upc_memget). The transfer is split
// into per-affinity runs like GetBulk; local runs complete
// synchronously, remote ones are issued without waiting — small ones
// through the coalescing buffers when the runtime has them enabled.
// dst must not be read, and the array region not written, until Sync.
func (t *Thread) NbGet(dst []byte, r Ref) Handle {
	t.p.ParkWake()
	t.nbIssue(kindNbGet, "NbGet", r, dst)
	t.p.Await()
	return t.h
}

// NbGetC is NbGet in continuation-passing style.
func (t *Thread) NbGetC(dst []byte, r Ref, then func(h Handle)) {
	t.thenT = then
	t.park(pcThenHandle)
	t.nbIssue(kindNbGet, "NbGet", r, dst)
}

// NbPut starts a split-phase write of len(src) bytes of consecutive
// elements at r (the non-blocking upc_memput). src is captured at
// issue; Sync on the returned handle waits for target visibility,
// stronger than a blocking Put (which only waits for local completion
// and leaves visibility to the fence). Transfers above the eager limit
// keep the blocking rendezvous pipeline and retire under the fence.
func (t *Thread) NbPut(r Ref, src []byte) Handle {
	t.p.ParkWake()
	t.nbIssue(kindNbPut, "NbPut", r, src)
	t.p.Await()
	return t.h
}

// NbPutC is NbPut in continuation-passing style.
func (t *Thread) NbPutC(r Ref, src []byte, then func(h Handle)) {
	t.thenT = then
	t.park(pcThenHandle)
	t.nbIssue(kindNbPut, "NbPut", r, src)
}

// nbIssue issues a split-phase transfer run by run and leaves its
// handle in t.h.
func (t *Thread) nbIssue(kind int, name string, r Ref, buf []byte) {
	n := runElems(name, len(buf), r)
	if n == 0 {
		t.h = Handle{}
		t.c.Resume()
		return
	}
	t.nb = t.newNbOp()
	t.park(pcNbIssued)
	t.bulk(kind, r, n, buf)
}

// nbIssued finishes a split-phase issue: hand out a live handle, or
// free the descriptor when every run completed locally (the work is
// already done).
func (t *Thread) nbIssued() {
	op := t.nb
	t.nb = nil
	if len(op.subs) == 0 {
		t.freeNbOp(op)
		t.h = Handle{}
	} else {
		t.nbOut = append(t.nbOut, op)
		t.h = Handle{op: op, gen: op.gen}
	}
	t.c.Resume()
}

// issued records the run in flight as a sub-operation of the handle
// being issued, to be retired through done.
func (t *Thread) issued(kind int, done *sim.Completion) {
	t.nb.subs = append(t.nb.subs, nbSub{
		kind: kind, done: done,
		a: t.a, rn: t.rn, off: t.off, dst: t.buf, out: t.out,
		aop: t.aop, a1: t.a1, a2: t.a2,
		span: t.span, start: t.start,
	})
	t.a, t.buf, t.out, t.span, t.done = nil, nil, nil, nil, nil
	t.c.Resume()
}

// Sync blocks until the operation behind h has completed: the thread's
// node flushes its coalescing buffers (parked sub-messages must leave)
// and the handle's sub-operations are retired in issue order.
func (t *Thread) Sync(h Handle) {
	t.p.ParkWake()
	t.sync(h)
	t.p.Await()
}

// SyncC is Sync in continuation-passing style.
func (t *Thread) SyncC(h Handle, then func()) {
	t.c.Park(sim.Func(then), 0)
	t.sync(h)
}

func (t *Thread) sync(h Handle) {
	op := h.op
	if op == nil || op.gen != h.gen || op.retired {
		t.c.Resume()
		return
	}
	t.syncOp = op
	t.rt.M.FlushCoalescedC(t.c, t.ns.id, t.after(pcSyncFlushed))
}

func (t *Thread) syncFlushed() {
	t.park(pcSyncRetired)
	t.retire(t.syncOp)
}

func (t *Thread) syncRetired() {
	op := t.syncOp
	t.syncOp = nil
	for i, o := range t.nbOut {
		if o == op {
			t.nbOut = append(t.nbOut[:i], t.nbOut[i+1:]...)
			break
		}
	}
	t.freeNbOp(op)
	t.c.Resume()
}

// SyncAll retires every outstanding split-phase handle of this thread,
// in issue order. Fences and barriers call it first, so the blocking
// memory-consistency points also cover split-phase traffic.
func (t *Thread) SyncAll() {
	t.p.ParkWake()
	t.syncAll()
	t.p.Await()
}

// SyncAllC is SyncAll in continuation-passing style.
func (t *Thread) SyncAllC(then func()) {
	t.c.Park(sim.Func(then), 0)
	t.syncAll()
}

func (t *Thread) syncAll() {
	if len(t.nbOut) == 0 {
		t.c.Resume()
		return
	}
	t.rt.M.FlushCoalescedC(t.c, t.ns.id, t.after(pcSyncAllNext))
}

// syncAllNext retires nbOut[si]. The list is drained by index and
// truncated in place at the end, so it keeps its backing array from
// round to round.
func (t *Thread) syncAllNext() {
	if t.si == len(t.nbOut) {
		t.nbOut = t.nbOut[:0]
		t.si = 0
		t.c.Resume()
		return
	}
	t.park(pcSyncAllRetired)
	t.retire(t.nbOut[t.si])
}

func (t *Thread) syncAllRetired() {
	t.freeNbOp(t.nbOut[t.si])
	t.nbOut[t.si] = nil
	t.si++
	t.syncAllNext()
}

// retire waits for op's sub-operations in issue order and runs the
// retire work of each.
func (t *Thread) retire(op *nbOp) {
	if op.retired {
		t.c.Resume()
		return
	}
	op.retired = true
	t.rop, t.ri = op, 0
	t.retireNext()
}

func (t *Thread) retireNext() {
	if t.ri == len(t.rop.subs) {
		t.rop = nil
		t.c.Resume()
		return
	}
	t.rop.subs[t.ri].done.WaitFn(t.c, t.after(pcRetireWoke))
}

// retireWoke runs the retire work of the sub-operation whose completion
// fired. A Nack means the run has to be redone over the active-message
// path, synchronously — the thread is inside Sync, so blocking is the
// semantics: a stale epoch (the target restarted) flushes the whole
// node from the cache first; a plain Nack (the target deregistered the
// region mid-flight) drops just the stale entry.
func (t *Thread) retireWoke() {
	sub := &t.rop.subs[t.ri]
	t.ri++
	t.park(pcRetireNext)
	done := sub.done
	val, data := done.Value(), done.Bytes()
	t.rt.K.Recycle(done)
	t.span, t.start = sub.span, sub.start
	nk, nacked := val.(transport.Nack)
	if nacked {
		t.a, t.rn, t.off, t.buf, t.out = sub.a, sub.rn, sub.off, sub.dst, sub.out
		t.aop, t.a1, t.a2 = sub.aop, sub.a1, sub.a2
		t.rdma.Nack = nk
	}
	switch sub.kind {
	case subGet:
		copy(sub.dst, data)
		t.rt.hdr.bounce.Put(data)
		t.getRetired()
	case subGetRDMA:
		if nacked {
			t.park(pcGetFinish)
			t.nacked("get", (*Thread).eagerGet)
			return
		}
		copy(sub.dst, data)
		t.getRetired()
	case subPut:
		t.putRetired()
	case subAtomic:
		if sub.out != nil {
			*sub.out = val.(uint64)
		}
		t.atomicRetired()
	case subAtomicRDMA:
		if nacked {
			t.park(pcRedoneAtomic)
			t.nacked("atomic", (*Thread).amAtomic)
			return
		}
		if sub.out != nil && data != nil {
			*sub.out = byteOrder.Uint64(data)
		}
		t.atomicRetired()
	}
}

// nbGetRun issues one single-affinity run of a split-phase GET.
func (t *Thread) nbGetRun(a *SharedArray, idx int64, dst []byte) {
	prof := t.rt.cfg.Profile
	rn := a.l.NodeOf(idx)
	if rn == t.ns.id || (len(dst) > prof.EagerMax && prof.SupportsRDMA) {
		// Intra-node runs complete at issue, exactly like the blocking
		// path: there is nothing to overlap. Rendezvous-sized transfers
		// stay blocking too: nothing small to batch, and the zero-copy
		// pipeline overlaps within the transfer.
		t.getRun(a, idx, dst)
		return
	}
	t.a, t.rn, t.off, t.buf, t.start = a, rn, a.l.ChunkOffset(idx), dst, t.Now()
	t.remote(kindNbGet, len(dst))
}

func (t *Thread) nbGetHit(base mem.Addr, ep uint32) {
	t.rt.M.RDMAGetStartC(t.c, t.ns.id, t.rn, base, base+mem.Addr(t.off), t.buf, len(t.buf), ep, t.span, &t.rdma, t.after(pcNbGetStarted))
}

func (t *Thread) nbGetStarted() { t.issued(subGetRDMA, t.rdma.Done) }

func (t *Thread) nbGetEager() {
	t.span.SetProto("eager")
	t.done = sim.NewCompletion(t.rt.K, "get")
	t.rt.M.SendAMCoalescedC(t.c, t.ns.id, t.rn, hGetReq, t.getReq(), nil, 0, t.span, t.after(pcNbGetSent))
}

func (t *Thread) nbGetSent() { t.issued(subGet, t.done) }

// nbPutRun issues one single-affinity run of a split-phase PUT.
func (t *Thread) nbPutRun(a *SharedArray, idx int64, src []byte) {
	prof := t.rt.cfg.Profile
	rn := a.l.NodeOf(idx)
	if rn == t.ns.id || (len(src) > prof.EagerMax && prof.SupportsRDMA) {
		t.putRun(a, idx, src) // local, or async under the fence, as always
		return
	}
	t.a, t.rn, t.off, t.buf, t.start = a, rn, a.l.ChunkOffset(idx), src, t.Now()
	t.done = sim.NewCompletion(t.rt.K, "nb-put")
	t.remote(kindNbPut, len(src))
}

func (t *Thread) nbPutHit(base mem.Addr, ep uint32) {
	t.buf = t.rt.bounceCopy(t.buf)
	t.rt.M.RDMAPutStartC(t.c, t.ns.id, t.rn, base, base+mem.Addr(t.off), t.buf, ep, t.span, &t.rdma, t.after(pcNbPutStarted))
}

func (t *Thread) nbPutStarted() {
	t.acks.Add(1)
	t.watchPut(t.rdma.Done, t.a, t.rn, t.off, t.buf, t.span, t.done)
	t.issued(subPut, t.done)
}

func (t *Thread) nbPutEager() {
	t.span.SetProto("eager")
	t.t0 = t.Now()
	t.c.Sleep(sim.BytesTime(len(t.buf), t.rt.cfg.Profile.CopyByteTime), t.after(pcNbPutCopied))
}

func (t *Thread) nbPutCopied() {
	t.span.Phase(telemetry.PhaseCopy, t.t0, t.Now())
	t.acks.Add(1)
	t.rt.M.SendAMCoalescedC(t.c, t.ns.id, t.rn, hPutReq,
		t.rt.newPutReq(putReq{H: t.a.h, Off: t.off, WantAddr: t.ns.cache != nil, Fence: t.acks, Done: t.done}),
		t.rt.bounceCopy(t.buf), 0, t.span, t.after(pcNbPutSent))
}

func (t *Thread) nbPutSent() { t.issued(subPut, t.done) }
