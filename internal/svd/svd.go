// Package svd implements the Shared Variable Directory of the XLUPC
// runtime (paper §2.1): a distributed symbol table naming every shared
// object by an opaque handle. On a system with n UPC threads the SVD
// has n+1 partitions — partition k lists the variables affine to
// thread k, and the ALL partition lists statically or collectively
// allocated variables. Every node holds a replica, but local memory
// addresses are recorded only on nodes that own a piece of the object;
// translating a handle to an address for another node's memory is
// impossible by design — that is exactly the gap the remote address
// cache (package addrcache) fills.
//
// Partitions have a single writer (the owning thread, or the collective
// for ALL), so replicas need no locking and are kept consistent with
// notifications only.
package svd

import (
	"fmt"
	"sort"

	"xlupc/internal/mem"
)

// AllPartition is the partition index of the ALL partition, reserved
// for shared variables allocated statically or through collective
// operations.
const AllPartition int32 = -1

// Handle is an opaque SVD handle: the partition number plus the index
// of the object in that partition. Handles are universal — the same
// handle denotes the same shared object on every node.
type Handle struct {
	Part  int32
	Index int32
}

// Key packs the handle into a single comparable/hashable word, used to
// tag address-cache entries.
func (h Handle) Key() uint64 {
	return uint64(uint32(h.Part))<<32 | uint64(uint32(h.Index))
}

// HandleFromKey unpacks a Key back into a Handle.
func HandleFromKey(k uint64) Handle {
	return Handle{Part: int32(k >> 32), Index: int32(k & 0xffffffff)}
}

func (h Handle) String() string {
	if h.Part == AllPartition {
		return fmt.Sprintf("ALL:%d", h.Index)
	}
	return fmt.Sprintf("%d:%d", h.Part, h.Index)
}

// ControlBlock is the per-object record held in each SVD replica. The
// layout fields are universal (identical on every replica); LocalBase
// and LocalSize describe this node's piece and are only meaningful on
// nodes that own part of the object.
type ControlBlock struct {
	Handle   Handle
	Name     string // diagnostic label
	ElemSize int    // bytes per element
	Block    int64  // elements per block (block-cyclic layout factor)
	NumElems int64  // total elements across all threads

	// Local state (this replica's node only).
	HasLocal  bool     // this node owns a piece of the object
	LocalBase mem.Addr // base of this node's piece
	LocalSize int      // size of this node's piece in bytes
	Freed     bool     // object has been deallocated
}

// Directory is one node's replica of the SVD.
type Directory struct {
	node    int
	threads int
	parts   map[int32]map[int32]*ControlBlock
	next    map[int32]int32 // next index per partition (writer side)
}

// NewDirectory returns an empty replica for the given node of a system
// with the given number of UPC threads.
func NewDirectory(node, threads int) *Directory {
	return &Directory{
		node:    node,
		threads: threads,
		parts:   make(map[int32]map[int32]*ControlBlock),
		next:    make(map[int32]int32),
	}
}

func (d *Directory) checkPart(part int32) {
	if part != AllPartition && (part < 0 || int(part) >= d.threads) {
		panic(fmt.Sprintf("svd: node %d: invalid partition %d (threads=%d)", d.node, part, d.threads))
	}
}

// NextIndex reserves and returns the next object index in a partition.
// Only the partition's single writer — the owning thread for a thread
// partition, the collective for ALL — may call this; the simulation
// relies on the caller honouring that, as the real runtime does.
func (d *Directory) NextIndex(part int32) int32 {
	d.checkPart(part)
	i := d.next[part]
	d.next[part] = i + 1
	return i
}

// Register installs a control block in this replica. Registering the
// same handle twice is a protocol bug and panics. Replicas that learn
// of an object via notification call this with HasLocal=false.
func (d *Directory) Register(cb *ControlBlock) {
	d.checkPart(cb.Handle.Part)
	p := d.parts[cb.Handle.Part]
	if p == nil {
		p = make(map[int32]*ControlBlock)
		d.parts[cb.Handle.Part] = p
	}
	if _, dup := p[cb.Handle.Index]; dup {
		panic(fmt.Sprintf("svd: node %d: duplicate registration of %v", d.node, cb.Handle))
	}
	p[cb.Handle.Index] = cb
	// Keep the writer's next-index cursor ahead of any index learned
	// via notification, so local and remote allocations cannot collide.
	if cb.Handle.Index >= d.next[cb.Handle.Part] {
		d.next[cb.Handle.Part] = cb.Handle.Index + 1
	}
}

// Lookup resolves a handle in this replica. It returns an error for
// unknown handles (a notification not yet processed is a protocol
// ordering bug in the simulation) and for freed objects (a
// use-after-free in the UPC program).
func (d *Directory) Lookup(h Handle) (*ControlBlock, error) {
	d.checkPart(h.Part)
	cb := d.parts[h.Part][h.Index]
	if cb == nil {
		return nil, fmt.Errorf("svd: node %d: unknown handle %v", d.node, h)
	}
	if cb.Freed {
		return nil, fmt.Errorf("svd: node %d: use after free of %v (%s)", d.node, h, cb.Name)
	}
	return cb, nil
}

// LookupAny resolves a handle even if the object has been freed,
// reporting presence. Protocol code uses it to tell "notification not
// yet processed" (absent: retry later) apart from "use after free"
// (present but freed: crash).
func (d *Directory) LookupAny(h Handle) (*ControlBlock, bool) {
	d.checkPart(h.Part)
	cb := d.parts[h.Part][h.Index]
	return cb, cb != nil
}

// MarkFreed flags a handle as deallocated in this replica. The control
// block stays so that stale accesses produce a crisp use-after-free
// error rather than a mystery.
func (d *Directory) MarkFreed(h Handle) {
	cb := d.parts[h.Part][h.Index]
	if cb == nil {
		panic(fmt.Sprintf("svd: node %d: freeing unknown handle %v", d.node, h))
	}
	if cb.Freed {
		panic(fmt.Sprintf("svd: node %d: double free of %v", d.node, h))
	}
	cb.Freed = true
}

// MetadataBytes estimates this replica's memory footprint: control
// blocks plus partition bookkeeping. The point of the SVD design is
// that this is O(objects) per node regardless of machine size, unlike
// the rejected full remote-address table, whose per-node cost is
// O(nodes × objects) (paper §2.1).
func (d *Directory) MetadataBytes() int {
	const cbBytes = 96 // control block struct + map slot
	n := 0
	for _, p := range d.parts {
		n += 48 // partition map header
		for _, cb := range p {
			n += cbBytes + len(cb.Name)
		}
	}
	return n
}

// FullTableBytes estimates what the rejected design of §2.1 would cost
// per node for the same objects on a machine of the given node count:
// one (object, node) → address entry for every object on every node.
func (d *Directory) FullTableBytes(nodes int) int {
	const entryBytes = 24 // key + address + hash slot
	return d.Live() * nodes * entryBytes
}

// Locals returns the live control blocks whose data lives on this node
// (HasLocal, not Freed), sorted by (Part, Index). The sort matters: the
// crash orchestrator walks this list to relocate every local piece into
// the restarted allocator, and map iteration order would make the new
// layout — and hence the whole post-crash event stream — nondeterministic.
func (d *Directory) Locals() []*ControlBlock {
	var out []*ControlBlock
	for _, p := range d.parts {
		for _, cb := range p {
			if cb.HasLocal && !cb.Freed {
				out = append(out, cb)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Handle, out[j].Handle
		if a.Part != b.Part {
			return a.Part < b.Part
		}
		return a.Index < b.Index
	})
	return out
}

// Live reports the number of live (registered, not freed) objects in
// this replica.
func (d *Directory) Live() int {
	n := 0
	for _, p := range d.parts {
		for _, cb := range p {
			if !cb.Freed {
				n++
			}
		}
	}
	return n
}
