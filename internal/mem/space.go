// Package mem models each simulated node's memory: a virtual address
// space with a first-fit allocator backed by real byte storage (so the
// simulation moves real data and tests can check integrity), and the
// paper's pinned address table tracking registered (RDMA-capable)
// regions, with pluggable pinning policies.
package mem

import (
	"fmt"
	"sort"
)

// Addr is a virtual address in a node's address space. Address 0 is
// never allocated, so it can serve as a nil value.
type Addr uint64

// Align is the allocation granularity; every segment base is a
// multiple of it.
const Align = 64

// segment is one live or free region of the address space.
type segment struct {
	base Addr
	size int // bytes, Align-rounded
	buf  []byte
	free bool
}

// Space is one node's virtual address space. It is not safe for
// concurrent use; under the simulation kernel only one process runs
// at a time, so no locking is needed.
type Space struct {
	node     int
	origin   Addr       // first allocatable address
	brk      Addr       // next fresh address
	segs     []*segment // sorted by base; both live and free
	liveSet  map[Addr]*segment
	allocs   int64
	frees    int64
	liveSize int64
}

// NewSpace returns an empty address space for the given node id.
func NewSpace(node int) *Space { return NewSpaceAt(node, Align) }

// NewSpaceAt returns an empty address space whose allocations start at
// origin (an Align multiple, at least Align). A node restarting after a
// crash re-seeds its allocator at a different origin so that addresses
// minted by the previous incarnation are provably not reissued — a
// stale cached base then misses the pin table instead of silently
// aliasing fresh data.
func NewSpaceAt(node int, origin Addr) *Space {
	if origin < Align || origin%Align != 0 {
		panic(fmt.Sprintf("mem: node %d: bad space origin %#x", node, origin))
	}
	return &Space{node: node, origin: origin, brk: origin, liveSet: make(map[Addr]*segment)}
}

// Node returns the owning node id.
func (s *Space) Node() int { return s.node }

// Origin returns the first allocatable address.
func (s *Space) Origin() Addr { return s.origin }

// LiveBytes reports the total size of live allocations.
func (s *Space) LiveBytes() int64 { return s.liveSize }

// Allocs and Frees report operation counts.
func (s *Space) Allocs() int64 { return s.allocs }
func (s *Space) Frees() int64  { return s.frees }

func roundUp(n int) int {
	if n <= 0 {
		n = 1
	}
	return (n + Align - 1) &^ (Align - 1)
}

// Alloc reserves size bytes and returns the segment's base address.
// Freed regions are reused first-fit (so addresses genuinely recur,
// which is what makes stale-address bugs observable); otherwise the
// space grows at the break.
func (s *Space) Alloc(size int) Addr {
	size = roundUp(size)
	// First fit over free segments.
	for _, seg := range s.segs {
		if seg.free && seg.size >= size {
			if seg.size > size {
				rest := &segment{base: seg.base + Addr(size), size: seg.size - size, free: true}
				seg.size = size
				s.insert(rest)
			}
			seg.free = false
			seg.buf = make([]byte, size)
			s.liveSet[seg.base] = seg
			s.allocs++
			s.liveSize += int64(size)
			return seg.base
		}
	}
	seg := &segment{base: s.brk, size: size, buf: make([]byte, size)}
	s.brk += Addr(size)
	s.insert(seg)
	s.liveSet[seg.base] = seg
	s.allocs++
	s.liveSize += int64(size)
	return seg.base
}

func (s *Space) insert(seg *segment) {
	i := sort.Search(len(s.segs), func(i int) bool { return s.segs[i].base >= seg.base })
	s.segs = append(s.segs, nil)
	copy(s.segs[i+1:], s.segs[i:])
	s.segs[i] = seg
}

// Free releases the segment based at base. Freeing an unknown or
// already-free address panics: in the simulation that is always a
// runtime bug worth crashing on. Adjacent free segments coalesce.
func (s *Space) Free(base Addr) {
	seg, ok := s.liveSet[base]
	if !ok {
		panic(fmt.Sprintf("mem: node %d: free of unallocated address %#x", s.node, base))
	}
	delete(s.liveSet, base)
	seg.free = true
	seg.buf = nil
	s.frees++
	s.liveSize -= int64(seg.size)
	s.coalesce(seg)
}

func (s *Space) coalesce(seg *segment) {
	i := s.index(seg.base)
	// Merge with next while free and contiguous.
	for i+1 < len(s.segs) {
		next := s.segs[i+1]
		if !next.free || seg.base+Addr(seg.size) != next.base {
			break
		}
		seg.size += next.size
		s.segs = append(s.segs[:i+1], s.segs[i+2:]...)
	}
	// Merge into previous if free and contiguous.
	if i > 0 {
		prev := s.segs[i-1]
		if prev.free && prev.base+Addr(prev.size) == seg.base {
			prev.size += seg.size
			s.segs = append(s.segs[:i], s.segs[i+1:]...)
		}
	}
}

func (s *Space) index(base Addr) int {
	i := sort.Search(len(s.segs), func(i int) bool { return s.segs[i].base >= base })
	if i == len(s.segs) || s.segs[i].base != base {
		panic(fmt.Sprintf("mem: node %d: segment %#x not found", s.node, base))
	}
	return i
}

// resolve finds the live segment containing [a, a+n).
func (s *Space) resolve(a Addr, n int) (*segment, int) {
	i := sort.Search(len(s.segs), func(i int) bool { return s.segs[i].base > a })
	if i == 0 {
		panic(fmt.Sprintf("mem: node %d: access to unmapped address %#x", s.node, a))
	}
	seg := s.segs[i-1]
	off := int(a - seg.base)
	if seg.free || off+n > seg.size {
		panic(fmt.Sprintf("mem: node %d: bad access %#x+%d (segment %#x size %d free=%v)",
			s.node, a, n, seg.base, seg.size, seg.free))
	}
	return seg, off
}

// Write copies b into memory at address a. The whole range must lie in
// one live segment.
func (s *Space) Write(a Addr, b []byte) {
	seg, off := s.resolve(a, len(b))
	copy(seg.buf[off:], b)
}

// Read copies n bytes at address a into dst (which must have length n).
func (s *Space) Read(dst []byte, a Addr) {
	seg, off := s.resolve(a, len(dst))
	copy(dst, seg.buf[off:off+len(dst)])
}

// View returns the n bytes at address a themselves, not a copy: a store
// through the view is a store to the node's memory and a Write shows in
// it, for as long as the segment lives. The whole range must lie in one
// live segment.
func (s *Space) View(a Addr, n int) []byte {
	seg, off := s.resolve(a, n)
	return seg.buf[off : off+n : off+n]
}

// ReadAlloc returns a fresh copy of n bytes at address a.
func (s *Space) ReadAlloc(a Addr, n int) []byte {
	dst := make([]byte, n)
	s.Read(dst, a)
	return dst
}

// SizeOf reports the (rounded) size of the live segment at base.
func (s *Space) SizeOf(base Addr) int {
	seg, ok := s.liveSet[base]
	if !ok {
		panic(fmt.Sprintf("mem: node %d: SizeOf unallocated %#x", s.node, base))
	}
	return seg.size
}

// Live reports whether base is the base of a live segment.
func (s *Space) Live(base Addr) bool {
	_, ok := s.liveSet[base]
	return ok
}

// CheckInvariants verifies the segment list is sorted, non-overlapping
// and gap-free from the origin to the break, and that no two free
// neighbours remain uncoalesced. Tests call this after random operation
// sequences.
func (s *Space) CheckInvariants() error {
	expect := s.origin
	for i, seg := range s.segs {
		if seg.base != expect {
			return fmt.Errorf("segment %d at %#x, expected %#x", i, seg.base, expect)
		}
		if seg.size <= 0 || seg.size%Align != 0 {
			return fmt.Errorf("segment %d bad size %d", i, seg.size)
		}
		if i > 0 && seg.free && s.segs[i-1].free {
			return fmt.Errorf("uncoalesced free segments at %d", i)
		}
		if !seg.free && len(seg.buf) != seg.size {
			return fmt.Errorf("live segment %d buf %d != size %d", i, len(seg.buf), seg.size)
		}
		expect = seg.base + Addr(seg.size)
	}
	if expect != s.brk {
		return fmt.Errorf("break %#x, segments end at %#x", s.brk, expect)
	}
	return nil
}
