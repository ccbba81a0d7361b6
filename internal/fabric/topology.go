// Package fabric models the cluster interconnect: node count, route
// lengths between nodes, wire latency and serialization costs, and the
// contended per-node hardware ports (NIC injection, plus the arrival
// queues that feed each node's active-message and DMA dispatchers).
//
// Two topologies mirror the paper's testbeds: a MareNostrum-style
// three-level Myrinet crossbar where routes are 1, 3 or 5 hops
// depending on how many linecards separate the endpoints, and a flat
// HPS-style federation switch with a constant route length.
package fabric

// Topology answers how far apart two nodes are.
type Topology interface {
	// Nodes is the number of nodes in the machine.
	Nodes() int
	// Hops is the route length in switch hops between two distinct
	// nodes. Hops(a, a) is not called (local traffic bypasses the
	// network).
	Hops(a, b int) int
	// Name is a short label for reports.
	Name() string
}

// Crossbar3 is the MareNostrum interconnect (paper §4.1): "Myrinet
// with a 3-level crossbar, resulting in 3 different route lengths
// (1 hop, when two nodes are connected to the same crossbar aka
// linecard, and 3 hops or 5 hops depending on the number of
// intervening linecards)".
type Crossbar3 struct {
	nodes       int
	perLinecard int // nodes per first-level crossbar
	perSpine    int // linecards per second-level group
}

// NewCrossbar3 builds the three-level crossbar. MareNostrum's real
// parameters: 16-port linecards feeding mid-level crossbars of 8
// linecards each.
func NewCrossbar3(nodes, perLinecard, perSpine int) *Crossbar3 {
	if nodes <= 0 || perLinecard <= 0 || perSpine <= 0 {
		panic("fabric: invalid crossbar parameters")
	}
	return &Crossbar3{nodes: nodes, perLinecard: perLinecard, perSpine: perSpine}
}

// DefaultCrossbar3 returns the MareNostrum-shaped topology for a node
// count: 16 nodes per linecard, 8 linecards per mid-level group.
func DefaultCrossbar3(nodes int) *Crossbar3 { return NewCrossbar3(nodes, 16, 8) }

func (c *Crossbar3) Nodes() int   { return c.nodes }
func (c *Crossbar3) Name() string { return "crossbar3" }

func (c *Crossbar3) Hops(a, b int) int {
	la, lb := a/c.perLinecard, b/c.perLinecard
	if la == lb {
		return 1
	}
	if la/c.perSpine == lb/c.perSpine {
		return 3
	}
	return 5
}

// Flat is a constant-route-length switch, modelling the IBM HPS
// federation switch of the Power5 cluster (paper §4.2).
type Flat struct {
	nodes int
	hops  int
}

// NewFlat returns a flat topology where every route is hops long.
func NewFlat(nodes, hops int) *Flat {
	if nodes <= 0 || hops <= 0 {
		panic("fabric: invalid flat parameters")
	}
	return &Flat{nodes: nodes, hops: hops}
}

func (f *Flat) Nodes() int        { return f.nodes }
func (f *Flat) Name() string      { return "flat" }
func (f *Flat) Hops(a, b int) int { return f.hops }
