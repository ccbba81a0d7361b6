package core

import (
	"xlupc/internal/sim"
	"xlupc/internal/transport"
)

// The runtime's barrier is hierarchical, matching the hybrid design:
// threads of a node combine in shared memory first, then one
// representative per node runs a dissemination barrier (ceil(log2 n)
// rounds of point-to-point messages) across nodes, and finally the
// representative releases its co-located threads. Dissemination keeps
// the critical path logarithmic.

// barrierMsg is one dissemination round's notification.
type barrierMsg struct {
	Epoch int64
	Round int // dissemination distance
}

type dissKey struct {
	epoch int64
	round int
}

// nodeBarrier is a node's barrier state.
type nodeBarrier struct {
	rt *Runtime
	ns *nodeState

	epoch   int64
	arrived int
	release *sim.Completion

	mail mailbox[dissKey, struct{}]

	// The representative's progress through the inter-node phase: the
	// dissemination distance it is at.
	round int
}

func newNodeBarrier(rt *Runtime, ns *nodeState) *nodeBarrier {
	return &nodeBarrier{rt: rt, ns: ns, mail: newMailbox[dissKey, struct{}]()}
}

// mailbox holds the point-to-point messages of a node's barrier or
// collectives, by what they are for, until its representative asks: a
// message that arrives first is kept, a representative that asks first
// waits on a completion the arrival completes.
type mailbox[K comparable, V any] struct {
	recv    map[K]V
	waiters map[K]*sim.Completion
}

func newMailbox[K comparable, V any]() mailbox[K, V] {
	return mailbox[K, V]{recv: make(map[K]V), waiters: make(map[K]*sim.Completion)}
}

// deliver hands v to whoever waits for key, or keeps it until asked.
func (mb *mailbox[K, V]) deliver(key K, v V) {
	if c, ok := mb.waiters[key]; ok {
		delete(mb.waiters, key)
		c.Complete(v)
		return
	}
	mb.recv[key] = v
}

// take returns the message for key if it has arrived, and otherwise the
// completion, named name, that its arrival will complete with it.
func (mb *mailbox[K, V]) take(k *sim.Kernel, key K, name string) (v V, c *sim.Completion) {
	if v, ok := mb.recv[key]; ok {
		delete(mb.recv, key)
		return v, nil
	}
	c = sim.NewCompletion(k, name)
	mb.waiters[key] = c
	return v, c
}

// localBarrierCost models the shared-memory combine per thread.
const localBarrierCost = 150 * sim.Ns

// Barrier is upc_barrier: it implies a fence, combines intra-node, and
// disseminates across nodes.
func (t *Thread) Barrier() { t.p.Await(t, pcStartBarrier) }

// BarrierC is Barrier in continuation-passing style.
func (t *Thread) BarrierC(then func()) {
	t.c.Park(sim.Func(then), 0)
	t.barrier()
}

func (t *Thread) barrier() {
	t.park(pcBarrierFenced)
	t.fence()
}

func (t *Thread) barrierFenced() {
	t.bspan = t.rt.tel.StartSpan("barrier", t.id, t.ns.id, t.Now())
	t.park(pcBarrierDone)
	t.c.Sleep(localBarrierCost, t.after(pcBarrierArrive))
}

func (t *Thread) barrierArrive() {
	nb := t.ns.barrier
	nb.arrived++
	if nb.arrived < t.rt.cfg.ThreadsPerNode() {
		if nb.release == nil {
			nb.release = sim.NewCompletion(t.rt.K, "barrier-release")
		}
		nb.release.WaitFn(t.c, t.c.Resumer())
		return
	}
	// Last arriver is the representative: run the inter-node phase.
	t.park(pcBarrierRelease)
	nb.round = 1
	t.disseminate()
}

func (t *Thread) barrierRelease() {
	nb := t.ns.barrier
	rel := nb.release
	nb.release = nil
	nb.arrived = 0
	nb.epoch++
	if rel != nil {
		rel.Complete(nil)
	}
	t.c.Resume()
}

func (t *Thread) barrierDone() {
	t.bspan.Finish(t.Now())
	t.bspan = nil
	t.c.Resume()
}

// barrierSend sends one barrier notification of the current epoch.
func (t *Thread) barrierSend(dst, round, sent int) {
	nb := t.ns.barrier
	t.rt.M.SendAMSpanC(t.c, nb.ns.id, dst, hBarrier,
		&barrierMsg{Epoch: nb.epoch, Round: round}, nil, 0, nil, t.after(sent))
}

// disseminate runs the representative's rounds for one epoch: round d
// notifies the node d ahead and waits for the node d behind.
func (t *Thread) disseminate() {
	nb := t.ns.barrier
	n := nb.rt.cfg.Nodes
	if nb.round >= n {
		t.c.Resume()
		return
	}
	t.barrierSend((nb.ns.id+nb.round)%n, nb.round, pcBarrierSent)
}

func (t *Thread) barrierSent() {
	nb := t.ns.barrier
	d := nb.round
	nb.round *= 2
	t.park(pcDisseminate)
	t.await(dissKey{epoch: nb.epoch, round: d})
}

// await blocks until the barrier message for key arrives (buffered or
// future).
func (t *Thread) await(key dissKey) {
	if _, c := t.ns.barrier.mail.take(t.rt.K, key, "barrier-round"); c != nil {
		c.WaitFn(t.c, t.c.Resumer())
		return
	}
	t.c.Resume()
}

func (rt *Runtime) handleBarrier(ct *sim.Cont, n *transport.Node, msg *transport.Msg, then func()) {
	m := msg.Meta.(*barrierMsg)
	rt.nodes[n.ID].barrier.mail.deliver(dissKey{epoch: m.Epoch, round: m.Round}, struct{}{})
	then()
}
