package core

import (
	"fmt"

	"xlupc/internal/sim"
	"xlupc/internal/svd"
	"xlupc/internal/transport"
)

// Lock is a UPC shared lock. Its queue lives on its home node; remote
// threads acquire and release it with active messages, co-located ones
// directly. Grants are FIFO.
type Lock struct {
	rt   *Runtime
	h    svd.Handle
	home int // home node
	name string
}

// lockHome is the home node's state for one lock.
type lockHome struct {
	held  bool
	queue []*lockWaiter
}

type lockWaiter struct {
	node int
	done *sim.Completion
}

// lockReq asks the home node for the lock; the answer completes Done
// with whether it was granted. A Try request (upc_lock_attempt) is
// answered at once either way; a plain one is answered when granted,
// at once or after waiting its turn in the home queue.
type lockReq struct {
	H    svd.Handle
	Try  bool
	Done *sim.Completion
}

type unlockReq struct {
	H svd.Handle
}

// lockCPUCost models the home-side queue manipulation.
const lockCPUCost = 120 * sim.Ns

// AllLockAlloc collectively creates a shared lock whose home is thread
// 0's node (upc_all_lock_alloc). All threads receive the same lock.
func (t *Thread) AllLockAlloc(name string) *Lock {
	t.allLockAlloc(name, t.p.Wake())
	t.p.Await()
	return t.ns.collective.(*Lock)
}

// AllLockAllocC is AllLockAlloc in continuation-passing style.
func (t *Thread) AllLockAllocC(name string, then func(l *Lock)) {
	t.allLockAlloc(name, func() { then(t.ns.collective.(*Lock)) })
}

// allLockAlloc is a barrier, the node representatives registering the
// lock, and a closing barrier that carries it to their co-located
// threads in ns.collective; then runs after it.
func (t *Thread) allLockAlloc(name string, then func()) {
	t.BarrierC(func() {
		if t.isNodeRep() {
			ns := t.ns
			idx := ns.dir.NextIndex(svd.AllPartition)
			h := svd.Handle{Part: svd.AllPartition, Index: idx}
			ns.dir.Register(&svd.ControlBlock{Handle: h, Kind: svd.KindLock, Name: name})
			if ns.id == 0 {
				ns.locks[h] = &lockHome{}
			}
			ns.collective = &Lock{rt: t.rt, h: h, home: 0, name: name}
		}
		t.BarrierC(then)
	})
}

func (ns *nodeState) lockState(h svd.Handle) *lockHome {
	lh, ok := ns.locks[h]
	if !ok {
		panic(fmt.Sprintf("core: node %d has no home state for lock %v", ns.id, h))
	}
	return lh
}

// Lock acquires l (upc_lock), blocking until granted.
func (t *Thread) Lock(l *Lock) {
	t.LockC(l, t.p.Wake())
	t.p.Await()
}

// LockC is Lock in continuation-passing style: then runs once the lock
// is granted.
func (t *Thread) LockC(l *Lock, then func()) {
	span := t.rt.tel.StartSpan("lock", t.id, t.ns.id, t.Now())
	t.lock(l, false, func(bool) {
		span.Finish(t.Now())
		then()
	})
}

// TryLock attempts to acquire l without blocking (upc_lock_attempt):
// it reports whether the lock was acquired. Remote attempts still pay
// one message round trip to the home node, as the real runtime's do.
func (t *Thread) TryLock(l *Lock) (ok bool) {
	wake := t.p.Wake()
	t.lock(l, true, func(got bool) {
		ok = got
		wake()
	})
	t.p.Await()
	return ok
}

// TryLockC is TryLock in continuation-passing style.
func (t *Thread) TryLockC(l *Lock, then func(ok bool)) { t.lock(l, true, then) }

// lock asks for l — with try, only if it is free — and runs then with
// whether it was granted. (Locks are rare enough to afford closures.)
func (t *Thread) lock(l *Lock, try bool, then func(ok bool)) {
	if t.ns.id != l.home {
		done := sim.NewCompletion(t.rt.K, "lock "+l.name)
		t.rt.M.SendAMSpanC(t.c, t.ns.id, l.home, hLockReq, &lockReq{H: l.h, Try: try, Done: done}, nil, 0, nil, func() {
			done.WaitFn(t.c, func() {
				ok := done.Value().(bool)
				t.rt.K.Recycle(done)
				then(ok)
			})
		})
		return
	}
	t.c.Sleep(lockCPUCost, func() {
		lh := t.ns.lockState(l.h)
		if free := !lh.held; free || try {
			lh.held = true
			then(free)
			return
		}
		done := sim.NewCompletion(t.rt.K, "lock "+l.name)
		lh.queue = append(lh.queue, &lockWaiter{node: t.ns.id, done: done})
		done.WaitFn(t.c, func() { then(true) })
	})
}

// Unlock releases l (upc_unlock). The next waiter, if any, is granted
// in FIFO order.
func (t *Thread) Unlock(l *Lock) {
	t.UnlockC(l, t.p.Wake())
	t.p.Await()
}

// UnlockC is Unlock in continuation-passing style: then runs once the
// release is done at the home node, or on the wire to it.
func (t *Thread) UnlockC(l *Lock, then func()) {
	if t.ns.id != l.home {
		t.rt.M.SendAMSpanC(t.c, t.ns.id, l.home, hUnlockReq, &unlockReq{H: l.h}, nil, 0, nil, then)
		return
	}
	t.c.Sleep(lockCPUCost, func() { t.rt.homeUnlockC(t.c, t.ns, l.h, then) })
}

// homeUnlockC passes the lock to the next waiter or releases it, on
// behalf of ct — the unlocking thread at the home node, or the
// dispatcher context serving a remote unlock — then runs then: at once,
// or once the grant to a remote waiter is on the wire.
func (rt *Runtime) homeUnlockC(ct *sim.Cont, home *nodeState, h svd.Handle, then func()) {
	lh := home.lockState(h)
	if !lh.held {
		panic(fmt.Sprintf("core: unlock of unheld lock %v", h))
	}
	if len(lh.queue) == 0 {
		lh.held = false
		then()
		return
	}
	w := lh.queue[0]
	lh.queue = lh.queue[1:]
	if w.node == home.id {
		w.done.Complete(nil)
		then()
		return
	}
	rt.M.SendAMSpanC(ct, home.id, w.node, hReply, rt.newReply(reply{Done: w.done, Val: true}), nil, 0, nil, then)
}

func (rt *Runtime) handleLockReq(ct *sim.Cont, n *transport.Node, msg *transport.Msg, then func()) {
	x := rt.serve(ct, n, msg, then)
	ct.Sleep(lockCPUCost, x.after(hcLockCharged))
}

func (x *amCtx) lockCharged() {
	m := x.msg.Meta.(*lockReq)
	lh := x.ns.lockState(m.H)
	if lh.held && !m.Try {
		lh.queue = append(lh.queue, &lockWaiter{node: x.msg.Src, done: m.Done})
		x.then()
		return
	}
	granted := !lh.held
	lh.held = true
	x.answer(reply{Done: m.Done, Val: granted}, nil, 0)
}

func (rt *Runtime) handleUnlockReq(ct *sim.Cont, n *transport.Node, msg *transport.Msg, then func()) {
	x := rt.serve(ct, n, msg, then)
	ct.Sleep(lockCPUCost, x.after(hcUnlockCharged))
}

func (x *amCtx) unlockCharged() {
	x.rt.homeUnlockC(x.ct, x.ns, x.msg.Meta.(*unlockReq).H, x.then)
}
