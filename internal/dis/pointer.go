package dis

import (
	"encoding/binary"

	"xlupc/internal/core"
)

// byteOrder matches the runtime's shared-array element encoding.
var byteOrder = binary.LittleEndian

// Pointer is the Pointer Stressmark: each UPC thread repeatedly
// follows pointers (hops) to randomized locations in a shared array,
// starting from a thread-specific position. Hops land uniformly across
// the whole array, so across nodes — the paper's example of the rare
// application class whose address-cache working set grows with the
// machine (§4.5, Figure 8a).
func Pointer(t *core.Thread, p Params) uint64 {
	n := int64(t.Threads()) * pointerPerThread
	// Blocked distribution: one contiguous block per thread.
	blk := (n + int64(t.Threads()) - 1) / int64(t.Threads())
	a := t.AllAlloc("pointer", n, 8, blk)

	// Owners initialize their blocks with a hash-derived successor
	// permutation-ish field: A[i] = h(i) mod n.
	t.ForAll(a, func(i int64) {
		t.PutUint64(a.At(i), p.hash(uint64(i)^0xF00D)%uint64(n))
	})
	t.Barrier()

	pos := int64(p.hash(uint64(t.ID())^0xBEEF) % uint64(n))
	var check uint64
	for h := 0; h < pointerHops; h++ {
		next := t.GetUint64(a.At(pos))
		t.Compute(hopCompute)
		check ^= next + uint64(h)
		pos = int64(next)
	}
	t.Barrier()
	return check
}

// Update is the Update Stressmark: a pointer-hopping benchmark where
// each hop reads several remote locations and updates one, all
// performed by UPC thread 0 while the other threads idle in a barrier —
// designed to measure the overhead of remote accesses to multiple
// threads' memory.
func Update(t *core.Thread, p Params) uint64 {
	n := int64(t.Threads()) * updatePerThread
	blk := (n + int64(t.Threads()) - 1) / int64(t.Threads())
	a := t.AllAlloc("update", n, 8, blk)

	t.ForAll(a, func(i int64) {
		t.PutUint64(a.At(i), p.hash(uint64(i)^0xCAFE)%uint64(n))
	})
	t.Barrier()

	var check uint64
	if t.ID() == 0 {
		pos := int64(p.hash(0x5EED) % uint64(n))
		hops := updateHopsBase + updateHopsPerThread*t.Threads()
		for h := 0; h < hops; h++ {
			var next uint64
			for r := 0; r < updateReads; r++ {
				at := (pos + int64(r)*97) % n
				v := t.GetUint64(a.At(at))
				if r == 0 {
					next = v
				}
				check ^= v + uint64(r)
			}
			t.Compute(updateHopCompute)
			// Update one location, preserving the successor structure
			// so reruns (and cache-on/off runs) traverse identically.
			t.PutUint64(a.At(pos), next)
			pos = int64(next)
		}
		t.Fence()
	}
	t.Barrier()
	return check
}
