package mem

// Observers of state the allocator and the pin table keep for
// themselves, which only tests read.

import "fmt"

// IsPinned reports whether the region based at base is pinned.
func (t *PinTable) IsPinned(base Addr) bool {
	_, ok := t.entries[base]
	return ok
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
