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

	// Inter-node messages, keyed by (epoch, sender's relative rank).
	mail mailbox[collKey, *collMsg]
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

// recvColl runs then with the message for key once it has arrived (it
// may already have been buffered).
func (t *Thread) recvColl(key collKey, then func(m *collMsg)) {
	m, c := t.ns.coll.mail.take(t.rt.K, key, "coll-msg")
	if c == nil {
		then(m)
		return
	}
	c.WaitFn(t.c, func() { then(c.Value().(*collMsg)) })
}

func (rt *Runtime) handleColl(ct *sim.Cont, n *transport.Node, msg *transport.Msg, then func()) {
	m := msg.Meta.(*collMsg)
	rt.nodes[n.ID].coll.mail.deliver(collKey{epoch: m.Epoch, from: m.From}, m)
	then()
}

// sendColl ships a collective message to node dst; then runs once it is
// on the wire.
func (t *Thread) sendColl(dst int, m *collMsg, then func()) {
	t.rt.M.SendAMSpanC(t.c, t.ns.id, dst, hColl, m, m.Data, 8, nil, then)
}

// collective runs one collective on t, as a ladder of closures
// (collectives are rare enough to afford them): a fence, then the
// intra-node arrival phase, in which every thread pays the combine cost
// and contributes. The node's last arriver is its representative: it
// runs the inter-node phase, rep, which hands the node's result to
// release. Every thread of the node then runs then with that result.
func (t *Thread) collective(contribute func(cs *collState), rep func(cs *collState, release func(result any)), then func(result any)) {
	t.FenceC(func() {
		cs := t.ns.coll
		t.c.Sleep(collCPUCost, func() {
			contribute(cs)
			cs.arrived++
			if cs.arrived < t.rt.cfg.ThreadsPerNode() {
				if cs.release == nil {
					cs.release = sim.NewCompletion(t.rt.K, fmt.Sprintf("coll-release n%d", t.ns.id))
				}
				rel := cs.release
				rel.WaitFn(t.c, func() { then(rel.Value()) })
				return
			}
			rep(cs, func(result any) {
				// The representative may enter the next collective at once,
				// so the others get the result through the completion, not
				// from shared state.
				rel := cs.release
				cs.release, cs.arrived = nil, 0
				cs.epoch++
				if rel != nil {
					rel.Complete(result)
				}
				then(result)
			})
		})
	})
}

// AllReduceU64 reduces one uint64 per thread with op and returns the
// result on every thread (upc_all_reduce with UPC_IN_ALLSYNC |
// UPC_OUT_ALLSYNC semantics).
func (t *Thread) AllReduceU64(v uint64, op ReduceOp) uint64 {
	t.p.ParkWake()
	t.allReduce(v, op)
	t.p.Await()
	return t.old
}

// AllReduceU64C is AllReduceU64 in continuation-passing style.
func (t *Thread) AllReduceU64C(v uint64, op ReduceOp, then func(r uint64)) {
	t.thenT = then
	t.park(pcThenOld)
	t.allReduce(v, op)
}

// allReduce leaves the reduction in t.old.
func (t *Thread) allReduce(v uint64, op ReduceOp) {
	t.collective(func(cs *collState) {
		if cs.arrived == 0 {
			cs.acc, cs.op = v, op
		} else {
			cs.acc = op.apply(cs.acc, v)
		}
	}, func(cs *collState, release func(any)) {
		n, epoch, acc := t.rt.cfg.Nodes, cs.epoch, cs.acc
		rel := t.ns.id // tree rooted at node 0: relative rank == node id
		// Binomial broadcast of the result back down the tree.
		down := func() {
			t.bcastTree(epoch, 0, acc, nil, func(m *collMsg) { release(m.Value) })
		}
		// Binomial reduce toward relative rank 0.
		mask := 1
		sim.Loop(func(next func()) {
			if mask >= n {
				down()
				return
			}
			if rel&mask != 0 {
				t.sendColl(rel-mask, &collMsg{Epoch: epoch, From: rel, Value: acc}, down)
				return
			}
			src := rel + mask
			mask <<= 1
			if src >= n {
				next()
				return
			}
			t.recvColl(collKey{epoch: epoch, from: src}, func(m *collMsg) {
				t.c.Sleep(collCPUCost, func() {
					acc = cs.op.apply(acc, m.Value)
					next()
				})
			})
		})
	}, func(r any) {
		t.old = r.(uint64)
		t.c.Resume()
	})
}

// bcastTree runs a binomial broadcast among node representatives for
// the given epoch, rooted at rootNode. Non-root nodes receive the
// payload; every node forwards to its subtree, then runs then with the
// payload.
func (t *Thread) bcastTree(epoch int64, rootNode int, value uint64, data []byte, then func(m *collMsg)) {
	n := t.rt.cfg.Nodes
	rel := (t.ns.id - rootNode + n) % n
	out := &collMsg{Epoch: epoch, Value: value, Data: data}
	mask := 1
	for mask < n && rel&mask == 0 {
		mask <<= 1
	}
	forward := func() {
		sim.Loop(func(next func()) {
			if mask >>= 1; mask == 0 {
				then(out)
				return
			}
			if dst := rel + mask; dst < n {
				t.sendColl((dst+rootNode)%n,
					&collMsg{Epoch: epoch, From: n + rel, Value: out.Value, Data: out.Data}, next)
				return
			}
			next()
		})
	}
	if rel == 0 {
		forward()
		return
	}
	// Receive from the parent (tagged with n+parent so the downward wave
	// cannot collide with an upward reduce in the same epoch).
	t.recvColl(collKey{epoch: epoch, from: n + (rel - mask)}, func(m *collMsg) {
		out.Value, out.Data = m.Value, m.Data
		forward()
	})
}

// AllReduceF64 sums one float64 per thread and returns the total on
// every thread. The reduction order is deterministic (slot order
// within nodes, tree order across them), so results are bitwise
// reproducible run to run.
func (t *Thread) AllReduceF64(v float64) float64 {
	return math.Float64frombits(t.AllReduceU64(math.Float64bits(v), ReduceFSum))
}

// copyOut is the last step of a collective that hands each thread bytes
// of its node's result: the thread pays the shared-memory copy of size
// bytes, then takes its private copy of part.
func (t *Thread) copyOut(size int, part []byte, out *[]byte) {
	t.c.Sleep(sim.BytesTime(size, t.rt.cfg.Profile.ShmByteTime), func() {
		*out = append([]byte(nil), part...)
		t.c.Resume()
	})
}

// Broadcast distributes root's data to every thread (upc_all_broadcast
// shape, staged through node representatives). Non-root threads pass
// nil; every thread returns its own copy.
func (t *Thread) Broadcast(root int, data []byte) (out []byte) {
	rootNode := t.rt.nodeOfThread(root).id
	t.p.ParkWake()
	t.collective(func(cs *collState) {
		if t.id == root {
			cs.data = append([]byte(nil), data...)
		}
	}, func(cs *collState, release func(any)) {
		t.bcastTree(cs.epoch, rootNode, 0, cs.data, func(m *collMsg) {
			cs.data = nil
			release(m.Data)
		})
	}, func(r any) {
		all := r.([]byte)
		t.copyOut(len(all), all, &out)
	})
	t.p.Await()
	return out
}

// Message tag spaces for the point-to-point collective waves (the
// binomial trees use [0,n) upward and [n,2n) downward).
func scatterTag(n, rel int) int { return 2*n + rel }
func gatherTag(n, rel int) int  { return 3*n + rel }

// Scatter splits root's data into Threads equal chunks and hands each
// thread its own (upc_all_scatter shape). len(data) must divide by the
// thread count; non-root threads pass nil.
func (t *Thread) Scatter(root int, data []byte) (out []byte) {
	n, tpn := t.rt.cfg.Nodes, t.rt.cfg.ThreadsPerNode()
	rootNode := t.rt.nodeOfThread(root).id
	if t.id == root && len(data)%t.Threads() != 0 {
		panic(fmt.Sprintf("core: Scatter of %d bytes does not divide among %d threads", len(data), t.Threads()))
	}
	t.p.ParkWake()
	t.collective(func(cs *collState) {
		if t.id == root {
			cs.data = append([]byte(nil), data...)
		}
	}, func(cs *collState, release func(any)) {
		epoch := cs.epoch
		if t.ns.id != rootNode {
			rel := (t.ns.id - rootNode + n) % n
			t.recvColl(collKey{epoch: epoch, from: scatterTag(n, rel)}, func(m *collMsg) { release(m.Data) })
			return
		}
		all := cs.data
		cs.data = nil
		chunk := len(all) / t.rt.cfg.Threads
		var nodeSlice []byte
		dst := 0
		sim.Loop(func(next func()) {
			if dst == n {
				release(nodeSlice)
				return
			}
			d := dst
			dst++
			lo := d * tpn * chunk
			part := all[lo : lo+tpn*chunk]
			if d == t.ns.id {
				nodeSlice = part
				next()
				return
			}
			t.sendColl(d, &collMsg{Epoch: epoch, From: scatterTag(n, (d-rootNode+n)%n), Data: part}, next)
		})
	}, func(r any) {
		nodeSlice := r.([]byte)
		chunk := len(nodeSlice) / tpn
		slot := t.id % tpn
		t.copyOut(chunk, nodeSlice[slot*chunk:(slot+1)*chunk], &out)
	})
	t.p.Await()
	return out
}

// Gather collects one equal-sized chunk from every thread at root
// (upc_all_gather shape): root receives the concatenation in thread
// order; everyone else receives nil.
func (t *Thread) Gather(root int, chunk []byte) (all []byte) {
	n, tpn := t.rt.cfg.Nodes, t.rt.cfg.ThreadsPerNode()
	rootNode := t.rt.nodeOfThread(root).id
	t.p.ParkWake()
	t.collective(func(cs *collState) {
		if cs.parts == nil {
			cs.parts = make([][]byte, tpn)
		}
		cs.parts[t.id%tpn] = append([]byte(nil), chunk...)
	}, func(cs *collState, release func(any)) {
		epoch := cs.epoch
		var nodeBlob []byte
		for _, p := range cs.parts {
			nodeBlob = append(nodeBlob, p...)
		}
		cs.parts = nil
		if t.ns.id != rootNode {
			rel := (t.ns.id - rootNode + n) % n
			t.sendColl(rootNode, &collMsg{Epoch: epoch, From: gatherTag(n, rel), Data: nodeBlob},
				func() { release([]byte(nil)) })
			return
		}
		blobs := make([][]byte, n)
		blobs[t.ns.id] = nodeBlob
		src := 0
		sim.Loop(func(next func()) {
			if src == t.ns.id {
				src++
			}
			if src == n {
				var all []byte
				for _, b := range blobs {
					all = append(all, b...)
				}
				release(all)
				return
			}
			s := src
			src++
			t.recvColl(collKey{epoch: epoch, from: gatherTag(n, (s-rootNode+n)%n)}, func(m *collMsg) {
				blobs[s] = m.Data
				next()
			})
		})
	}, func(r any) {
		if t.id != root {
			t.c.Resume()
			return
		}
		all = r.([]byte)
		t.c.Sleep(sim.BytesTime(len(all), t.rt.cfg.Profile.ShmByteTime), t.c.Resumer())
	})
	t.p.Await()
	return all
}
