package core

import (
	"xlupc/internal/mem"
	"xlupc/internal/sim"
	"xlupc/internal/telemetry"
	"xlupc/internal/transport"
)

// nbOp is one split-phase operation started with NbGet or
// NbAccumulate: one sub-operation per remote single-affinity run of
// the transfer, retired in issue order by SyncAll (which every fence
// and barrier calls). Descriptors are recycled through the issuing
// thread's free list.
type nbOp struct {
	subs []nbSub
}

// What a sub-operation is, which decides its retire work.
const (
	subGet        = iota // eager GET: done carries the reply
	subGetRDMA           // one-sided GET: done carries the data or a Nack
	subAtomic            // AM atomic: done carries the previous value
	subAtomicRDMA        // NIC atomic: done carries it, or a Nack
)

// nbSub is one remote run of a split-phase operation: the completion
// the issuing thread waits on at SyncAll, and what the retire work that
// runs once it fires needs — where to copy the data out to, what to
// redo over the active-message path after a Nack, the span to finish
// and the issue time the thread's counters are charged from.
type nbSub struct {
	kind  int
	done  *sim.Completion
	a     *SharedArray
	rn    int
	off   int64
	dst   []byte // GET: the caller's buffer
	aop   transport.AtomicOp
	a1    uint64
	span  *telemetry.Span
	start sim.Time
}

// newNbOp takes a descriptor from the thread's free list (or allocates
// the first time); freeNbOp returns one after retire.
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
	clear(op.subs)
	op.subs = op.subs[:0]
	t.nbPool = append(t.nbPool, op)
}

// NbGet starts a split-phase read of len(dst) bytes of consecutive
// elements at r (the non-blocking upc_memget). The transfer is split
// into per-affinity runs like GetBulk; local runs complete
// synchronously, remote ones are issued without waiting — small ones
// through the coalescing buffers when the runtime has them enabled.
// dst must not be read, and the array region not written, until
// SyncAll (or a fence or barrier) has retired it.
func (t *Thread) NbGet(dst []byte, r Ref) {
	t.stage(r, dst)
	t.p.Await(t, pcStartNbGet)
}

func (t *Thread) startNbGet() {
	r, dst := t.unstage()
	t.nbGet(dst, r)
}

// nbGet issues a split-phase GET run by run.
func (t *Thread) nbGet(dst []byte, r Ref) {
	n := runElems("NbGet", len(dst), r)
	if n == 0 {
		t.c.Resume()
		return
	}
	t.nb = t.newNbOp()
	t.park(pcNbIssued)
	t.bulk(kindNbGet, r, n, dst)
}

// nbIssued finishes a split-phase issue: queue the operation for
// SyncAll, or free the descriptor when every run completed locally
// (the work is already done).
func (t *Thread) nbIssued() {
	op := t.nb
	t.nb = nil
	if len(op.subs) == 0 {
		t.freeNbOp(op)
	} else {
		t.nbOut = append(t.nbOut, op)
	}
	t.c.Resume()
}

// issued records the run in flight as a sub-operation of the
// operation being issued, to be retired through done.
func (t *Thread) issued(kind int, done *sim.Completion) {
	t.nb.subs = append(t.nb.subs, nbSub{
		kind: kind, done: done,
		a: t.a, rn: t.rn, off: t.off, dst: t.buf,
		aop: t.aop, a1: t.a1,
		span: t.span, start: t.start,
	})
	t.a, t.buf, t.span, t.done = nil, nil, nil, nil
	t.c.Resume()
}

// SyncAll retires every outstanding split-phase operation of this
// thread, in issue order: the thread's node flushes its coalescing
// buffers (parked sub-messages must leave), then each operation's
// sub-operations are waited for and their retire work run. Fences and
// barriers call it first, so the blocking memory-consistency points
// also cover split-phase traffic.
func (t *Thread) SyncAll() { t.p.Await(t, pcStartSyncAll) }

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
	t.rop, t.ri = t.nbOut[t.si], 0
	t.retireNext()
}

func (t *Thread) syncAllRetired() {
	t.freeNbOp(t.nbOut[t.si])
	t.nbOut[t.si] = nil
	t.si++
	t.syncAllNext()
}

// retireNext waits for the sub-operations of rop in issue order and
// runs the retire work of each.
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
// path, synchronously — the thread is inside SyncAll, so blocking is the
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
		t.a, t.rn, t.off, t.buf = sub.a, sub.rn, sub.off, sub.dst
		t.aop, t.a1 = sub.aop, sub.a1
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
	case subAtomic:
		t.atomicRetired()
	case subAtomicRDMA:
		if nacked {
			t.park(pcAtomicFinish)
			t.nacked("atomic", (*Thread).amAtomic)
			return
		}
		t.atomicRetired()
	}
}

// nbGetRun issues one single-affinity run of a split-phase GET.
func (t *Thread) nbGetRun(a *SharedArray, idx int64, dst []byte) {
	rn, off := a.l.Locate(idx)
	if rn == t.ns.id || len(dst) > t.rt.cfg.Profile.EagerMax {
		// Intra-node runs complete at issue, exactly like the blocking
		// path: there is nothing to overlap. Rendezvous-sized transfers
		// stay blocking too: nothing small to batch, and the zero-copy
		// pipeline overlaps within the transfer.
		t.getRun(a, idx, dst)
		return
	}
	t.a, t.rn, t.off, t.buf, t.start = a, rn, off, dst, t.Now()
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
