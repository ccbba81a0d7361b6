package core

import (
	"fmt"
	"math"

	"xlupc/internal/sim"
	"xlupc/internal/transport"
)

// Collectives use the same hierarchical shape as the barrier: threads
// combine intra-node in shared memory, node representatives run a
// binomial tree across nodes (log2(n) rounds of active messages), and
// the representative releases its co-located threads with the result.
// Like all UPC collectives, every thread must call them in the same
// order with compatible arguments.

// ReduceOp selects the combining operator of a reduction.
type ReduceOp int

const (
	ReduceSum ReduceOp = iota
	ReduceMin
	ReduceMax
	ReduceXor
	// ReduceFSum sums float64 values carried as their IEEE-754 bits
	// (the runtime's reductions move raw 8-byte words).
	ReduceFSum
)

func (op ReduceOp) String() string {
	switch op {
	case ReduceSum:
		return "sum"
	case ReduceMin:
		return "min"
	case ReduceMax:
		return "max"
	case ReduceXor:
		return "xor"
	case ReduceFSum:
		return "fsum"
	}
	return fmt.Sprintf("op(%d)", int(op))
}

func (op ReduceOp) apply(a, b uint64) uint64 {
	switch op {
	case ReduceMin:
		if b < a {
			return b
		}
		return a
	case ReduceMax:
		if b > a {
			return b
		}
		return a
	case ReduceXor:
		return a ^ b
	case ReduceFSum:
		return math.Float64bits(math.Float64frombits(a) + math.Float64frombits(b))
	default:
		return a + b
	}
}

// collCPUCost models the local combine work per collective step.
const collCPUCost = 150 * sim.Ns

// collState is a node's collective bookkeeping.
type collState struct {
	epoch   int64
	arrived int
	acc     uint64
	op      ReduceOp
	data    []byte
	parts   [][]byte // per-thread-slot staging for scatter/gather
	release *sim.Completion

	// Inter-node buffering, keyed by (epoch, sender's relative rank).
	recv    map[collKey]*collMsg
	waiters map[collKey]*sim.Completion
}

type collKey struct {
	epoch int64
	from  int
}

// collMsg is the inter-node collective payload.
type collMsg struct {
	Epoch int64
	From  int // sender's relative rank in the current tree
	Value uint64
	Data  []byte
}

func newCollState() *collState {
	return &collState{
		recv:    make(map[collKey]*collMsg),
		waiters: make(map[collKey]*sim.Completion),
	}
}

// awaitColl blocks until the message for key arrives (it may already
// have been buffered).
func (cs *collState) awaitColl(p *sim.Proc, k *sim.Kernel, key collKey) *collMsg {
	if m, ok := cs.recv[key]; ok {
		delete(cs.recv, key)
		return m
	}
	c := sim.NewCompletion(k, fmt.Sprintf("coll e%d from %d", key.epoch, key.from))
	cs.waiters[key] = c
	p.Wait(c)
	delete(cs.waiters, key)
	return c.Value().(*collMsg)
}

func (rt *Runtime) handleColl(ct *sim.Cont, n *transport.Node, msg *transport.Msg, then func()) {
	cs := rt.nodes[n.ID].coll
	m := msg.Meta.(*collMsg)
	key := collKey{epoch: m.Epoch, from: m.From}
	if c, ok := cs.waiters[key]; ok {
		c.Complete(m)
	} else {
		cs.recv[key] = m
	}
	then()
}

// sendColl ships a collective message to another node.
func (rt *Runtime) sendColl(p *sim.Proc, src, dst int, m *collMsg) {
	rt.M.SendAM(p, src, dst, hColl, m, m.Data, 8)
}

// enterColl performs the intra-node arrival phase. The representative
// (the last arriver) gets rep=true and must run the inter-node phase,
// then call releaseColl with the result; the other threads block and
// receive that result through the returned completion.
func (t *Thread) enterColl(contribute func(cs *collState)) (rep bool, cs *collState, release *sim.Completion) {
	cs = t.ns.coll
	t.p.Sleep(collCPUCost)
	contribute(cs)
	cs.arrived++
	if cs.arrived < t.rt.cfg.ThreadsPerNode() {
		if cs.release == nil {
			cs.release = sim.NewCompletion(t.rt.K, fmt.Sprintf("coll-release n%d", t.ns.id))
		}
		release = cs.release
		t.p.Wait(release)
		return false, cs, release
	}
	return true, cs, nil
}

// releaseColl wakes the node's other threads, handing them the result
// through the completion (the representative may immediately enter the
// next collective, so waiters must not read shared state).
func (t *Thread) releaseColl(cs *collState, result any) {
	rel := cs.release
	cs.release = nil
	cs.arrived = 0
	cs.epoch++
	if rel != nil {
		rel.Complete(result)
	}
}

// AllReduceU64 reduces one uint64 per thread with op and returns the
// result on every thread (upc_all_reduce with UPC_IN_ALLSYNC |
// UPC_OUT_ALLSYNC semantics).
func (t *Thread) AllReduceU64(v uint64, op ReduceOp) uint64 {
	t.Fence()
	rep, cs, release := t.enterColl(func(cs *collState) {
		if cs.arrived == 0 {
			cs.acc, cs.op = v, op
		} else {
			cs.acc = op.apply(cs.acc, v)
		}
	})
	if !rep {
		return release.Value().(uint64)
	}
	n := t.rt.cfg.Nodes
	epoch := cs.epoch
	rel := t.ns.id // tree rooted at node 0: relative rank == node id
	acc := cs.acc
	// Binomial reduce toward relative rank 0.
	for mask := 1; mask < n; mask <<= 1 {
		if rel&mask == 0 {
			src := rel + mask
			if src < n {
				m := cs.awaitColl(t.p, t.rt.K, collKey{epoch: epoch, from: src})
				t.p.Sleep(collCPUCost)
				acc = cs.op.apply(acc, m.Value)
			}
		} else {
			t.rt.sendColl(t.p, t.ns.id, rel-mask, &collMsg{Epoch: epoch, From: rel, Value: acc})
			break
		}
	}
	// Binomial broadcast of the result back down the tree.
	acc = t.bcastTree(cs, epoch, 0, acc, nil).Value
	t.releaseColl(cs, acc)
	return acc
}

// bcastTree runs a binomial broadcast among node representatives for
// the given epoch, rooted at rootNode. Non-root nodes receive the
// payload; every node forwards to its subtree. It returns the payload.
func (t *Thread) bcastTree(cs *collState, epoch int64, rootNode int, value uint64, data []byte) *collMsg {
	n := t.rt.cfg.Nodes
	rel := (t.ns.id - rootNode + n) % n
	out := &collMsg{Epoch: epoch, Value: value, Data: data}
	mask := 1
	if rel != 0 {
		for mask < n {
			if rel&mask != 0 {
				// Receive from the parent (tagged with n+parent so the
				// downward wave cannot collide with an upward reduce
				// in the same epoch).
				m := cs.awaitColl(t.p, t.rt.K, collKey{epoch: epoch, from: n + (rel - mask)})
				out.Value, out.Data = m.Value, m.Data
				break
			}
			mask <<= 1
		}
	} else {
		for mask < n {
			mask <<= 1
		}
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		dst := rel + mask
		if dst < n {
			t.rt.sendColl(t.p, t.ns.id, (dst+rootNode)%n,
				&collMsg{Epoch: epoch, From: n + rel, Value: out.Value, Data: out.Data})
		}
	}
	return out
}

// AllReduceF64 sums one float64 per thread and returns the total on
// every thread. The reduction order is deterministic (slot order
// within nodes, tree order across them), so results are bitwise
// reproducible run to run.
func (t *Thread) AllReduceF64(v float64) float64 {
	return math.Float64frombits(t.AllReduceU64(math.Float64bits(v), ReduceFSum))
}

// Broadcast distributes root's data to every thread (upc_all_broadcast
// shape, staged through node representatives). Non-root threads pass
// nil; every thread returns its own copy.
func (t *Thread) Broadcast(root int, data []byte) []byte {
	t.Fence()
	rootNode := t.rt.nodeOfThread(root).id
	rep, cs, release := t.enterColl(func(cs *collState) {
		if t.id == root {
			cs.data = append([]byte(nil), data...)
		}
	})
	var out []byte
	if rep {
		m := t.bcastTree(cs, cs.epoch, rootNode, 0, cs.data)
		out = m.Data
		cs.data = nil
		t.releaseColl(cs, out)
	} else {
		out = release.Value().([]byte)
	}
	// Each thread takes a private copy (intra-node shared-memory copy).
	t.p.Sleep(sim.BytesTime(len(out), t.rt.cfg.Profile.ShmByteTime))
	return append([]byte(nil), out...)
}

// Message tag spaces for the point-to-point collective waves (the
// binomial trees use [0,n) upward and [n,2n) downward).
func scatterTag(n, rel int) int { return 2*n + rel }
func gatherTag(n, rel int) int  { return 3*n + rel }

// Scatter splits root's data into Threads equal chunks and hands each
// thread its own (upc_all_scatter shape). len(data) must divide by the
// thread count; non-root threads pass nil.
func (t *Thread) Scatter(root int, data []byte) []byte {
	t.Fence()
	n := t.rt.cfg.Nodes
	tpn := t.rt.cfg.ThreadsPerNode()
	rootNode := t.rt.nodeOfThread(root).id
	if t.id == root && len(data)%t.Threads() != 0 {
		panic(fmt.Sprintf("core: Scatter of %d bytes does not divide among %d threads", len(data), t.Threads()))
	}
	rep, cs, release := t.enterColl(func(cs *collState) {
		if t.id == root {
			cs.data = append([]byte(nil), data...)
		}
	})
	var nodeSlice []byte
	if rep {
		epoch := cs.epoch
		if t.ns.id == rootNode {
			all := cs.data
			cs.data = nil
			chunk := len(all) / t.rt.cfg.Threads
			for dst := 0; dst < n; dst++ {
				lo := dst * tpn * chunk
				hi := lo + tpn*chunk
				if dst == t.ns.id {
					nodeSlice = all[lo:hi]
					continue
				}
				rel := (dst - rootNode + n) % n
				t.rt.sendColl(t.p, t.ns.id, dst,
					&collMsg{Epoch: epoch, From: scatterTag(n, rel), Data: all[lo:hi]})
			}
		} else {
			rel := (t.ns.id - rootNode + n) % n
			m := cs.awaitColl(t.p, t.rt.K, collKey{epoch: epoch, from: scatterTag(n, rel)})
			nodeSlice = m.Data
		}
		t.releaseColl(cs, nodeSlice)
	} else {
		nodeSlice = release.Value().([]byte)
	}
	chunk := len(nodeSlice) / tpn
	slot := t.id % tpn
	t.p.Sleep(sim.BytesTime(chunk, t.rt.cfg.Profile.ShmByteTime))
	return append([]byte(nil), nodeSlice[slot*chunk:(slot+1)*chunk]...)
}

// Gather collects one equal-sized chunk from every thread at root
// (upc_all_gather shape): root receives the concatenation in thread
// order; everyone else receives nil.
func (t *Thread) Gather(root int, chunk []byte) []byte {
	t.Fence()
	n := t.rt.cfg.Nodes
	tpn := t.rt.cfg.ThreadsPerNode()
	rootNode := t.rt.nodeOfThread(root).id
	rep, cs, release := t.enterColl(func(cs *collState) {
		if cs.parts == nil {
			cs.parts = make([][]byte, tpn)
		}
		cs.parts[t.id%tpn] = append([]byte(nil), chunk...)
	})
	var all []byte
	if rep {
		epoch := cs.epoch
		var nodeBlob []byte
		for _, p := range cs.parts {
			nodeBlob = append(nodeBlob, p...)
		}
		cs.parts = nil
		if t.ns.id == rootNode {
			blobs := make([][]byte, n)
			blobs[t.ns.id] = nodeBlob
			for src := 0; src < n; src++ {
				if src == t.ns.id {
					continue
				}
				rel := (src - rootNode + n) % n
				m := cs.awaitColl(t.p, t.rt.K, collKey{epoch: epoch, from: gatherTag(n, rel)})
				blobs[src] = m.Data
			}
			for _, b := range blobs {
				all = append(all, b...)
			}
		} else {
			rel := (t.ns.id - rootNode + n) % n
			t.rt.sendColl(t.p, t.ns.id, rootNode,
				&collMsg{Epoch: epoch, From: gatherTag(n, rel), Data: nodeBlob})
		}
		t.releaseColl(cs, all)
	} else {
		if v := release.Value(); v != nil {
			all = v.([]byte)
		}
	}
	if t.id != root {
		return nil
	}
	t.p.Sleep(sim.BytesTime(len(all), t.rt.cfg.Profile.ShmByteTime))
	return all
}
