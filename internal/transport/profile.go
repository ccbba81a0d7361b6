// Package transport models the two messaging substrates of the paper
// on top of the simulated fabric: Myrinet/GM as installed on
// MareNostrum, and LAPI over the IBM HPS switch of the Power5 cluster.
//
// It provides the node abstraction (memory, pinned address table, CPU
// and communication processors, NIC dispatchers), one-sided active
// messages with header handlers (LAPI_Amsend-style), and RDMA GET/PUT
// that move data with no target-CPU involvement. Upper layers (the UPC
// runtime in internal/core) register AM handlers and compose these
// primitives into the paper's protocols.
package transport

import (
	"xlupc/internal/fabric"
	"xlupc/internal/mem"
	"xlupc/internal/sim"
)

// Costs and framing that both platforms share.
const (
	// RecvOverhead is the header-handler entry cost at the target.
	RecvOverhead = 1100 * sim.Ns
	// CacheLookupCost is a remote address cache probe.
	CacheLookupCost = 30 * sim.Ns
	// CacheInsertCost is a remote address cache fill.
	CacheInsertCost = 40 * sim.Ns

	// AMHeaderBytes is the wire overhead of an active message.
	AMHeaderBytes = 64
	// AckBytes is the wire size of an ACK.
	AckBytes = 32
	// RDMADescBytes is the wire size of an RDMA descriptor.
	RDMADescBytes = 32
)

// Profile is the calibrated cost model of one platform. All times are
// virtual; the values are calibrated so that the published qualitative
// behaviour emerges (see DESIGN.md §6), not to match the original
// testbeds cycle for cycle.
type Profile struct {
	Name string

	// Wire and topology.
	Wire    fabric.WireModel
	NewTopo func(nodes int) fabric.Topology

	// Node shape.
	Cores        int // compute cores per node
	CommCapacity int // parallel AM handler contexts of a dedicated
	// comm processor (LAPI's adapter threads), on which handlers
	// overlap with computation; 0: there is none, and handlers steal
	// compute CPU (GM, paper §4.6 Field analysis).

	// Software costs.
	SendOverhead  sim.Time // CPU time to build+inject a message
	SVDLookupCost sim.Time // handle → local address translation
	CopyByteTime  sim.Time // memcpy cost (bounce buffers), ps/byte
	ShmLatency    sim.Time // intra-node shared-memory access latency
	ShmByteTime   sim.Time // intra-node copy, ps/byte

	// RDMA engine.
	RDMASetup        sim.Time // initiator descriptor-build cost
	RDMATargetCost   sim.Time // target NIC service cost per op
	RDMARecvCost     sim.Time // initiator NIC completion cost
	RDMAExtraLatency sim.Time // extra latency of RDMA mode (HPS trait)

	// Protocol switch: messages up to EagerMax bytes go eagerly
	// (copied through bounce buffers); larger ones use rendezvous
	// with zero-copy.
	EagerMax int

	// Memory registration.
	Reg       mem.CostModel
	PinPolicy mem.PinPolicy
	// PinEvictor selects the pin-table victim policy under PinLimited;
	// the zero value is the historical LRU.
	PinEvictor mem.EvictorKind
	// PinLazy enables the lazy-unpin registration cache on every node's
	// pin table. Off keeps eager deregistration and the event stream
	// bit-identical to the baseline.
	PinLazy bool

	// PutCacheEnabled reflects the paper's decision to disable the
	// address cache for PUT operations on LAPI (§4.3).
	PutCacheEnabled bool
}

// GM returns the Myrinet/GM profile (MareNostrum, paper §4.1/§3.3).
//
// Calibration anchors: ~250 MB/s rated bandwidth, small-message
// roundtrips in the 4–8 µs range, AM handlers executing on the compute
// CPU, registration required for all transfers with expensive
// deregistration, 1 GB of DMAable memory.
func GM() *Profile {
	return &Profile{
		Name: "gm",
		Wire: fabric.WireModel{
			BaseLatency: 1400 * sim.Ns,
			HopLatency:  300 * sim.Ns,
			ByteTime:    sim.PerByte(250), // 4 ns/B ≈ 250 MB/s
		},
		NewTopo: func(nodes int) fabric.Topology { return fabric.DefaultCrossbar3(nodes) },
		Cores:   4, // JS21: two dual-core PPC 970-MP

		SendOverhead:  500 * sim.Ns,
		SVDLookupCost: 800 * sim.Ns,
		CopyByteTime:  1500 * sim.Ps, // ~0.65 GB/s memcpy
		ShmLatency:    200 * sim.Ns,
		ShmByteTime:   400 * sim.Ps,

		RDMASetup:        600 * sim.Ns,
		RDMATargetCost:   500 * sim.Ns,
		RDMARecvCost:     300 * sim.Ns,
		RDMAExtraLatency: 0,

		EagerMax: 16 << 10,

		Reg: mem.CostModel{
			RegBase:      10 * sim.Us,
			RegPerPage:   250 * sim.Ns,
			DeregBase:    25 * sim.Us,
			DeregPerPage: 400 * sim.Ns,
			MaxTotal:     1 << 30, // 1 GB DMAable memory (§3.3)
		},
		PinPolicy:       mem.PinAll,
		PutCacheEnabled: true,
	}
}

// LAPI returns the LAPI/HPS profile (Power5 cluster, paper §4.2/§3.2).
//
// Calibration anchors: ~8× the Myrinet bandwidth, a flat federation
// switch, AM handlers overlapping with computation, RDMA mode with
// "excellent throughput … at the cost of higher latency", and a 32 MB
// per-handle registration limit.
func LAPI() *Profile {
	return &Profile{
		Name: "lapi",
		Wire: fabric.WireModel{
			BaseLatency: 2000 * sim.Ns,
			HopLatency:  150 * sim.Ns,
			ByteTime:    sim.PerByte(2000), // 0.5 ns/B ≈ 2 GB/s
		},
		NewTopo:      func(nodes int) fabric.Topology { return fabric.NewFlat(nodes, 2) },
		Cores:        16, // 8 × 2-way SMT Power5
		CommCapacity: 4,

		SendOverhead:  600 * sim.Ns,
		SVDLookupCost: 1000 * sim.Ns,
		CopyByteTime:  150 * sim.Ps, // ~6.6 GB/s streaming memcpy
		ShmLatency:    150 * sim.Ns,
		ShmByteTime:   100 * sim.Ps,

		RDMASetup:        500 * sim.Ns,
		RDMATargetCost:   400 * sim.Ns,
		RDMARecvCost:     300 * sim.Ns,
		RDMAExtraLatency: 1500 * sim.Ns,

		EagerMax: 1 << 20,

		Reg: mem.CostModel{
			RegBase:      8 * sim.Us,
			RegPerPage:   200 * sim.Ns,
			DeregBase:    16 * sim.Us,
			DeregPerPage: 300 * sim.Ns,
			MaxPerObject: 32 << 20, // 32 MB registration handle (§3.2)
		},
		PinPolicy:       mem.PinAll,
		PutCacheEnabled: false, // §4.3: cache disabled for PUT on LAPI
	}
}

// ByName resolves a profile by its name.
func ByName(name string) *Profile {
	switch name {
	case "gm":
		return GM()
	case "lapi":
		return LAPI()
	}
	return nil
}
