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
	t.Barrier()
	ns := t.ns
	if t.isNodeRep() {
		idx := ns.dir.NextIndex(svd.AllPartition)
		h := svd.Handle{Part: svd.AllPartition, Index: idx}
		ns.dir.Register(&svd.ControlBlock{Handle: h, Kind: svd.KindLock, Name: name})
		if ns.id == 0 {
			ns.locks[h] = &lockHome{}
		}
		ns.collective = &Lock{rt: t.rt, h: h, home: 0, name: name}
	}
	t.Barrier()
	return ns.collective.(*Lock)
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
	span := t.rt.tel.StartSpan("lock", t.id, t.ns.id, t.Now())
	defer func() { span.Finish(t.Now()) }()
	if t.ns.id == l.home {
		t.p.Sleep(lockCPUCost)
		lh := t.ns.lockState(l.h)
		if !lh.held {
			lh.held = true
			return
		}
		done := sim.NewCompletion(t.rt.K, "lock "+l.name)
		lh.queue = append(lh.queue, &lockWaiter{node: t.ns.id, done: done})
		t.p.Wait(done)
		return
	}
	done := sim.NewCompletion(t.rt.K, "lock "+l.name)
	t.rt.M.SendAM(t.p, t.ns.id, l.home, hLockReq, &lockReq{H: l.h, Done: done}, nil, 0)
	t.p.Wait(done)
}

// TryLock attempts to acquire l without blocking (upc_lock_attempt):
// it reports whether the lock was acquired. Remote attempts still pay
// one message round trip to the home node, as the real runtime's do.
func (t *Thread) TryLock(l *Lock) bool {
	if t.ns.id == l.home {
		t.p.Sleep(lockCPUCost)
		lh := t.ns.lockState(l.h)
		if lh.held {
			return false
		}
		lh.held = true
		return true
	}
	done := sim.NewCompletion(t.rt.K, "trylock "+l.name)
	t.rt.M.SendAM(t.p, t.ns.id, l.home, hLockReq, &lockReq{H: l.h, Try: true, Done: done}, nil, 0)
	t.p.Wait(done)
	v := done.Value().(bool)
	t.rt.K.Recycle(done)
	return v
}

// Unlock releases l (upc_unlock). The next waiter, if any, is granted
// in FIFO order.
func (t *Thread) Unlock(l *Lock) {
	if t.ns.id == l.home {
		t.p.Sleep(lockCPUCost)
		t.rt.homeUnlockC(t.c, t.ns, l.h, t.p.Wake())
		t.p.Await()
		return
	}
	t.rt.M.SendAM(t.p, t.ns.id, l.home, hUnlockReq, &unlockReq{H: l.h}, nil, 0)
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
	rt.M.SendAMSpanC(ct, home.id, w.node, hReply, &reply{Done: w.done, Val: true}, nil, 0, nil, then)
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
	x.answer(&reply{Done: m.Done, Val: granted}, nil, 0)
}

func (rt *Runtime) handleUnlockReq(ct *sim.Cont, n *transport.Node, msg *transport.Msg, then func()) {
	x := rt.serve(ct, n, msg, then)
	ct.Sleep(lockCPUCost, x.after(hcUnlockCharged))
}

func (x *amCtx) unlockCharged() {
	x.rt.homeUnlockC(x.ct, x.ns, x.msg.Meta.(*unlockReq).H, x.then)
}
