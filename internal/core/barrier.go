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
// the critical path logarithmic — a flat master/slave barrier is kept
// as an ablation (see Config in internal/bench).

// barrierMsg is one barrier notification: a dissemination round, or an
// arrive/release message of the flat (master/slave) ablation variant.
type barrierMsg struct {
	Epoch int64
	Round int // dissemination distance; flatArrive/flatRelease otherwise
}

// Sentinel rounds for the flat barrier.
const (
	flatArrive  = -1
	flatRelease = -2
)

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

	recv    map[dissKey]bool
	waiters map[dissKey]*sim.Completion

	// The representative's progress through the inter-node phase: the
	// dissemination distance (or flat-release destination) it is at, and
	// the message it is waiting for.
	round   int
	waitKey dissKey

	// Flat-barrier master state (node 0 only).
	flatCount     map[int64]int
	flatWait      *sim.Completion
	flatWaitEpoch int64
	flatTarget    int
}

func newNodeBarrier(rt *Runtime, ns *nodeState) *nodeBarrier {
	return &nodeBarrier{
		rt:        rt,
		ns:        ns,
		recv:      make(map[dissKey]bool),
		waiters:   make(map[dissKey]*sim.Completion),
		flatCount: make(map[int64]int),
	}
}

// localBarrierCost models the shared-memory combine per thread.
const localBarrierCost = 150 * sim.Ns

// Barrier is upc_barrier: it implies a fence, combines intra-node, and
// disseminates across nodes.
func (t *Thread) Barrier() {
	t.p.ParkWake()
	t.barrier()
	t.p.Await()
}

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
	if t.rt.cfg.FlatBarrier {
		t.flat()
	} else {
		t.disseminate()
	}
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
	nb := t.ns.barrier
	if nb.recv[key] {
		delete(nb.recv, key)
		t.c.Resume()
		return
	}
	c := sim.NewCompletion(nb.rt.K, "barrier-round")
	nb.waiters[key] = c
	nb.waitKey = key
	c.WaitFn(t.c, t.after(pcBarrierMsg))
}

func (t *Thread) barrierMsgIn() {
	nb := t.ns.barrier
	delete(nb.waiters, nb.waitKey)
	t.c.Resume()
}

// flat is the master/slave barrier ablation: every representative
// reports to node 0, which releases everyone once all have arrived.
// O(n) messages serialized through one node — the scalability
// bottleneck the dissemination design avoids.
func (t *Thread) flat() {
	nb := t.ns.barrier
	if nb.ns.id != 0 {
		t.barrierSend(0, flatArrive, pcFlatArrived)
		return
	}
	// Master: collect n-1 arrivals, then release everyone.
	if need := nb.rt.cfg.Nodes - 1; nb.flatCount[nb.epoch] < need {
		c := sim.NewCompletion(nb.rt.K, "flat-barrier")
		nb.flatWait = c
		nb.flatWaitEpoch = nb.epoch
		nb.flatTarget = need
		c.WaitFn(t.c, t.after(pcFlatCollected))
		return
	}
	t.flatCollected()
}

func (t *Thread) flatArrived() { t.await(dissKey{epoch: t.ns.barrier.epoch, round: flatRelease}) }

func (t *Thread) flatCollected() {
	nb := t.ns.barrier
	delete(nb.flatCount, nb.epoch)
	t.flatRelease()
}

// flatRelease releases node nb.round, then the ones after it.
func (t *Thread) flatRelease() {
	nb := t.ns.barrier
	if nb.round >= nb.rt.cfg.Nodes {
		t.c.Resume()
		return
	}
	dst := nb.round
	nb.round++
	t.barrierSend(dst, flatRelease, pcFlatRelease)
}

func (rt *Runtime) handleBarrier(ct *sim.Cont, n *transport.Node, msg *transport.Msg, then func()) {
	nb := rt.nodes[n.ID].barrier
	m := msg.Meta.(*barrierMsg)
	if m.Round == flatArrive {
		nb.flatCount[m.Epoch]++
		if nb.flatWait != nil && nb.flatWaitEpoch == m.Epoch && nb.flatCount[m.Epoch] >= nb.flatTarget {
			c := nb.flatWait
			nb.flatWait = nil
			c.Complete(nil)
		}
		then()
		return
	}
	key := dissKey{epoch: m.Epoch, round: m.Round}
	if c, ok := nb.waiters[key]; ok {
		c.Complete(nil)
	} else {
		nb.recv[key] = true
	}
	then()
}
