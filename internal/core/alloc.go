package core

import (
	"fmt"

	"xlupc/internal/sim"
	"xlupc/internal/svd"
	"xlupc/internal/transport"
)

// allocCPUCost models the local bookkeeping of creating a shared
// object: SVD update plus heap allocation.
const allocCPUCost = 2 * sim.Us

// freeReq asks a node to drop an object: eagerly invalidate its
// address-cache entries, deregister and free the local piece, and mark
// the handle freed.
type freeReq struct {
	H    svd.Handle
	Acks *sim.Counter
}

// installArray registers the control block for layout l on node ns and
// allocates the node's chunk if it owns part of the object.
func (ns *nodeState) installArray(h svd.Handle, name string, l Layout) *svd.ControlBlock {
	cb := &svd.ControlBlock{
		Handle:   h,
		Name:     name,
		ElemSize: l.ElemSize,
		Block:    l.Block,
		NumElems: l.NumElems,
	}
	if size := l.NodeChunkBytes(); size > 0 {
		cb.HasLocal = true
		cb.LocalSize = int(size)
		cb.LocalBase = ns.tn.Mem.Alloc(int(size))
	}
	ns.dir.Register(cb)
	return cb
}

// allocReq is a collective allocation in progress on a node: what its
// representative was asked for and, once chosen, under which handle.
type allocReq struct {
	name     string
	elemSize int
	block    int64
	numElems int64
	h        svd.Handle
	l        Layout
}

// AllAlloc is upc_all_alloc: a collective allocation of a shared array
// of numElems elements of elemSize bytes, distributed block-cyclically
// with the given block size (elements per block; <=0 means indefinite,
// everything affine to thread 0). All threads must call it with the
// same arguments; all receive the same array.
func (t *Thread) AllAlloc(name string, numElems int64, elemSize int, block int64) *SharedArray {
	t.p.Await(sim.Func(func() { t.allAlloc(name, numElems, elemSize, block) }), 0)
	return t.arr
}

// AllAllocC is AllAlloc in continuation-passing style.
func (t *Thread) AllAllocC(name string, numElems int64, elemSize int, block int64, then func(a *SharedArray)) {
	t.thenT = then
	t.park(pcThenArray)
	t.allAlloc(name, numElems, elemSize, block)
}

// allAlloc allocates collectively and leaves the array in t.arr: a
// barrier, the node representatives install the object, and a closing
// barrier carries it to their co-located threads.
func (t *Thread) allAlloc(name string, numElems int64, elemSize int, block int64) {
	if numElems <= 0 || elemSize <= 0 {
		panic(fmt.Sprintf("core: AllAlloc(%s) with nonpositive size", name))
	}
	t.aspan = t.rt.tel.StartSpan("alloc", t.id, t.ns.id, t.Now())
	t.aspan.SetProto("collective")
	if t.isNodeRep() {
		t.ns.alloc = allocReq{name: name, elemSize: elemSize, block: block, numElems: numElems}
	}
	t.park(pcAllocOpened)
	t.barrier()
}

func (t *Thread) allocOpened() {
	t.park(pcAllocClosed)
	if !t.isNodeRep() {
		t.barrier()
		return
	}
	req := &t.ns.alloc
	req.l = t.rt.layout(req.elemSize, req.block, req.numElems)
	req.h = svd.Handle{Part: svd.AllPartition, Index: t.ns.dir.NextIndex(svd.AllPartition)}
	t.park(pcAllocInstall)
	t.compute(allocCPUCost)
}

func (t *Thread) allocInstall() {
	ns, req := t.ns, &t.ns.alloc
	ns.installArray(req.h, req.name, req.l)
	ns.collective = &SharedArray{h: req.h, l: req.l, name: req.name}
	t.barrier()
}

func (t *Thread) allocClosed() {
	t.arr = t.ns.collective.(*SharedArray)
	t.aspan.Finish(t.Now())
	t.aspan = nil
	t.c.Resume()
}

// sendOthers sends meta to every other node, one active message after
// another in node order, and runs then once the last is on the wire.
func (t *Thread) sendOthers(id transport.HandlerID, meta any, extra int, then func()) {
	dst := -1
	sim.Loop(func(next func()) {
		if dst++; dst == t.ns.id {
			dst++
		}
		if dst == t.rt.cfg.Nodes {
			then()
			return
		}
		t.rt.M.SendAMSpanC(t.c, t.ns.id, dst, id, meta, nil, extra, nil, next)
	})
}

// layout builds the run's layout for an allocation request.
func (rt *Runtime) layout(elemSize int, block, numElems int64) Layout {
	return NewLayout(rt.cfg.Threads, rt.cfg.ThreadsPerNode(), elemSize, block, numElems)
}

// Free is upc_free: deallocates a shared object. The paper's protocol
// is eager — before memory is released and may be reused, every node
// drops its address-cache entries for the object and deregisters its
// piece; the caller blocks until all nodes acknowledge, so no stale
// RDMA can land in recycled memory. The program must quiesce accesses
// to the object first (fence + barrier), as UPC requires.
func (t *Thread) Free(a *SharedArray) {
	t.p.Await(sim.Func(func() { t.FreeC(a, t.c.Resumer()) }), 0)
}

// FreeC is Free in continuation-passing style: fence, broadcast the
// free request, drop the local replica, then wait for every peer's
// acknowledgement. (Frees are rare enough to afford their closures.)
func (t *Thread) FreeC(a *SharedArray, then func()) {
	t.FenceC(func() {
		span := t.rt.tel.StartSpan("free", t.id, t.ns.id, t.Now())
		acks := sim.NewCounter(t.rt.K, "free-acks", t.rt.cfg.Nodes-1)
		t.sendOthers(hFreeReq, &freeReq{H: a.h, Acks: acks}, 0, func() {
			t.ns.dropObjectC(t.c, a.h, func() {
				acks.WaitFn(t.c, func() {
					span.Finish(t.Now())
					then()
				})
			})
		})
	})
}

// dropObjectC performs the local part of a free on node ns on behalf of
// ct, the freeing thread, and then runs then. (The dispatcher serving a
// peer's free request runs the same ladder on its own record.)
func (ns *nodeState) dropObjectC(ct *sim.Cont, h svd.Handle, then func()) {
	ct.Park(sim.Func(then), 0)
	(&dropOp{}).start(ns, ct, h)
}

// dropOp is the local part of a free in progress on node ns, on behalf
// of ct: eagerly invalidate the address-cache entries, deregister and
// free the local piece, and mark the handle freed; then resume what ct
// parked beneath it.
type dropOp struct {
	ns *nodeState
	ct *sim.Cont
	h  svd.Handle
	cb *svd.ControlBlock
	n  int // cache entries invalidated
}

// dropOp steps.
const (
	dropInvalidated = iota
	dropUnpinned
)

func (d *dropOp) start(ns *nodeState, ct *sim.Cont, h svd.Handle) {
	d.ns, d.ct, d.h = ns, ct, h
	if ns.cache == nil {
		d.deregister()
		return
	}
	d.n = ns.cache.InvalidateHandle(h.Key())
	ct.Sleep(sim.Time(d.n)*transport.CacheLookupCost, ct.Then(d, dropInvalidated))
}

func (d *dropOp) Step(pc int) {
	ns := d.ns
	switch pc {
	case dropInvalidated:
		ns.rt.recordCacheInval(ns.id, -1, d.h.Key(), d.n)
		d.deregister()
	case dropUnpinned:
		ns.tn.Mem.Free(d.cb.LocalBase)
		d.freed()
	}
}

// deregister looks the object up and unpins its local piece, if any.
func (d *dropOp) deregister() {
	ns := d.ns
	cb, ok := ns.dir.LookupAny(d.h)
	if !ok {
		panic(fmt.Sprintf("core: node %d freeing unknown object %v", ns.id, d.h))
	}
	if !cb.HasLocal {
		d.freed()
		return
	}
	d.cb = cb
	d.ct.Sleep(ns.tn.Pins.Unpin(cb.LocalBase, ns.rt.K.Now()), d.ct.Then(d, dropUnpinned))
}

func (d *dropOp) freed() {
	d.ns.dir.MarkFreed(d.h)
	ct := d.ct
	d.ct, d.cb = nil, nil
	ct.Resume()
}

func (rt *Runtime) handleFreeReq(ct *sim.Cont, n *transport.Node, msg *transport.Msg, then func()) {
	x := rt.serve(ct, n, msg, then)
	x.park(hcFreeDropped)
	x.drop.start(x.ns, ct, msg.Meta.(*freeReq).H)
}

func (x *amCtx) freeDropped() {
	x.answer(reply{Fence: x.msg.Meta.(*freeReq).Acks}, nil, 0)
}

// isNodeRep reports whether this thread is its node's representative
// (the lowest thread id on the node).
func (t *Thread) isNodeRep() bool {
	return t.id%t.rt.cfg.ThreadsPerNode() == 0
}
