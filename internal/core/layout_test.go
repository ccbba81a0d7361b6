package core

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestLayoutOwnerBlockCyclic(t *testing.T) {
	// 4 threads, block 3, 2 threads/node.
	l := NewLayout(4, 2, 8, 3, 24)
	wantOwner := []int{0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3}
	for i, w := range wantOwner {
		if got := l.Owner(int64(i)); got != w {
			t.Fatalf("Owner(%d) = %d, want %d", i, got, w)
		}
		if got := l.NodeOf(int64(i)); got != w/2 {
			t.Fatalf("NodeOf(%d) = %d, want %d", i, got, w/2)
		}
	}
}

func TestLayoutPhase(t *testing.T) {
	l := NewLayout(4, 2, 8, 3, 24)
	for i := int64(0); i < 24; i++ {
		if l.Phase(i) != i%3 {
			t.Fatalf("Phase(%d) = %d", i, l.Phase(i))
		}
	}
}

func TestLayoutChunkOffsets(t *testing.T) {
	// 2 threads on 1 node (pure SMP): chunk holds both regions.
	l := NewLayout(2, 2, 4, 2, 8)
	// blocksPerThread = ceil(8/(2*2)) = 2; region = 2*2*4 = 16 bytes.
	if l.ThreadRegionBytes() != 16 {
		t.Fatalf("region = %d", l.ThreadRegionBytes())
	}
	if l.NodeChunkBytes() != 32 {
		t.Fatalf("chunk = %d", l.NodeChunkBytes())
	}
	// Elements 0,1 → thread 0 block 0 → offsets 0,4.
	// Elements 2,3 → thread 1 block 0 → offsets 16,20.
	// Elements 4,5 → thread 0 block 1 → offsets 8,12.
	want := []int64{0, 4, 16, 20, 8, 12, 24, 28}
	for i, w := range want {
		if got := l.ChunkOffset(int64(i)); got != w {
			t.Fatalf("ChunkOffset(%d) = %d, want %d", i, got, w)
		}
	}
}

func TestLayoutIndefiniteBlock(t *testing.T) {
	l := NewLayout(4, 2, 8, 0, 100) // indefinite: all on thread 0
	for _, i := range []int64{0, 50, 99} {
		if l.Owner(i) != 0 {
			t.Fatalf("Owner(%d) = %d", i, l.Owner(i))
		}
	}
	// Uniform regions: every resident thread reserves one worst-case
	// region (2 threads/node × 100 elements × 8 bytes) even though
	// only thread 0 holds data — the documented space/simplicity
	// trade of the chunk scheme.
	if l.NodeChunkBytes() != 1600 {
		t.Fatalf("node 0 chunk = %d", l.NodeChunkBytes())
	}
	if l.ContigRun(0) != 100 {
		t.Fatalf("contig run = %d", l.ContigRun(0))
	}
}

func TestLayoutContigRun(t *testing.T) {
	l := NewLayout(4, 2, 8, 5, 43)
	if l.ContigRun(0) != 5 || l.ContigRun(3) != 2 || l.ContigRun(4) != 1 {
		t.Fatal("contig runs within block wrong")
	}
	// Tail: last block may be partial (elements 40..42, block 8, thread 0).
	if l.ContigRun(41) != 2 {
		t.Fatalf("tail run = %d", l.ContigRun(41))
	}
	// Single thread: the entire remainder is one run.
	l1 := NewLayout(1, 1, 8, 5, 43)
	if l1.ContigRun(7) != 36 {
		t.Fatalf("single-thread run = %d", l1.ContigRun(7))
	}
}

// Property: offsets are unique within a node, in range, and every
// element maps to the node that owns its thread.
func TestPropertyLayoutBijective(t *testing.T) {
	f := func(th8, tpn8, blk16 uint8, n16 uint16) bool {
		threads := int(th8%16) + 1
		tpn := int(tpn8%8) + 1
		for threads%tpn != 0 {
			tpn-- // force divisibility
		}
		block := int64(blk16%32) + 1
		n := int64(n16%2000) + 1
		l := NewLayout(threads, tpn, 8, block, n)
		seen := make(map[[2]int64]bool)
		for i := int64(0); i < n; i++ {
			node := int64(l.NodeOf(i))
			off := l.ChunkOffset(i)
			if off < 0 || off+int64(l.ElemSize) > l.NodeChunkBytes() {
				return false
			}
			if off%int64(l.ElemSize) != 0 {
				return false
			}
			k := [2]int64{node, off}
			if seen[k] {
				return false
			}
			seen[k] = true
			if l.Owner(i)/tpn != int(node) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: ContigRun never crosses an affinity or contiguity break —
// all elements of a run share the owner and have consecutive offsets.
func TestPropertyContigRunSound(t *testing.T) {
	f := func(th8, blk16 uint8, n16 uint16) bool {
		threads := int(th8%8) + 1
		block := int64(blk16%16) + 1
		n := int64(n16%500) + 1
		l := NewLayout(threads, 1, 4, block, n)
		for i := int64(0); i < n; {
			run := l.ContigRun(i)
			if run < 1 || i+run > n {
				return false
			}
			owner := l.Owner(i)
			base := l.ChunkOffset(i)
			for j := int64(0); j < run; j++ {
				if l.Owner(i+j) != owner {
					return false
				}
				if l.ChunkOffset(i+j) != base+j*int64(l.ElemSize) {
					return false
				}
			}
			i += run
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// FuzzLayoutChunkOffset hardens the layout arithmetic against
// arbitrary shapes: any in-range element must land inside its node's
// chunk, aligned to the element size. Run with `go test -fuzz
// FuzzLayoutChunkOffset ./internal/core` for exploration; the seed
// corpus runs under plain `go test`.
func FuzzLayoutChunkOffset(f *testing.F) {
	f.Add(uint8(4), uint8(2), uint8(3), uint16(100), uint16(17))
	f.Add(uint8(1), uint8(1), uint8(1), uint16(1), uint16(0))
	f.Add(uint8(16), uint8(4), uint8(32), uint16(5000), uint16(4999))
	f.Fuzz(func(t *testing.T, th, tpn, blk uint8, n, idx uint16) {
		threads := int(th%32) + 1
		perNode := int(tpn%8) + 1
		for threads%perNode != 0 {
			perNode--
		}
		block := int64(blk%64) + 1
		elems := int64(n%8192) + 1
		i := int64(idx) % elems
		l := NewLayout(threads, perNode, 8, block, elems)
		owner := l.Owner(i)
		if owner < 0 || owner >= threads {
			t.Fatalf("owner %d out of range", owner)
		}
		off := l.ChunkOffset(i)
		if off < 0 || off+8 > l.NodeChunkBytes() {
			t.Fatalf("offset %d outside chunk %d (i=%d)", off, l.NodeChunkBytes(), i)
		}
		if off%8 != 0 {
			t.Fatalf("offset %d misaligned", off)
		}
		run := l.ContigRun(i)
		if run < 1 || i+run > elems {
			t.Fatalf("run %d invalid at %d", run, i)
		}
	})
}

// ownedNaive is the reference NextOwned replaces: every index tested
// with Owner.
func ownedNaive(l Layout, thread int) []int64 {
	var out []int64
	for i := int64(0); i < l.NumElems; i++ {
		if l.Owner(i) == thread {
			out = append(out, i)
		}
	}
	return out
}

// ownedWalk enumerates thread's indices by stepping NextOwned from 0.
func ownedWalk(l Layout, thread int) []int64 {
	var out []int64
	for i := l.NextOwned(thread, 0); i < l.NumElems; i = l.NextOwned(thread, i+1) {
		out = append(out, i)
	}
	return out
}

func TestNextOwnedMatchesOwnerFilter(t *testing.T) {
	cases := []struct {
		name string
		l    Layout
	}{
		{"even", NewLayout(4, 2, 8, 3, 24)},
		{"ragged last block", NewLayout(4, 2, 8, 7, 45)},
		{"block >= NumElems", NewLayout(4, 2, 8, 100, 45)},
		{"indefinite block", NewLayout(4, 2, 8, 0, 45)},
		{"one thread", NewLayout(1, 1, 8, 5, 43)},
		{"fewer blocks than threads", NewLayout(8, 2, 8, 4, 10)}, // threads 3..7 own nothing
		{"block 1", NewLayout(3, 1, 8, 1, 10)},
		{"one element", NewLayout(4, 2, 8, 3, 1)},
	}
	for _, c := range cases {
		covered := int64(0)
		for th := 0; th < c.l.Threads; th++ {
			want, got := ownedNaive(c.l, th), ownedWalk(c.l, th)
			if !slices.Equal(got, want) {
				t.Errorf("%s: thread %d walks %v, owns %v", c.name, th, got, want)
			}
			covered += int64(len(got))
			// From every starting index, not only from a previous hit.
			for i := int64(0); i <= c.l.NumElems+2; i++ {
				next := c.l.NumElems
				if k, ok := slices.BinarySearch(want, i); ok || k < len(want) {
					next = want[k]
				}
				if g := c.l.NextOwned(th, i); g != next {
					t.Errorf("%s: NextOwned(%d, %d) = %d, want %d", c.name, th, i, g, next)
				}
			}
		}
		if covered != c.l.NumElems {
			t.Errorf("%s: threads cover %d of %d indices", c.name, covered, c.l.NumElems)
		}
	}
}

// Property, seeded: on random shapes the walk of every thread equals
// the Owner filter, in order.
func TestPropertyNextOwnedMatchesOwnerFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for iter := 0; iter < 300; iter++ {
		threads := rng.Intn(16) + 1
		l := NewLayout(threads, 1, 8, int64(rng.Intn(40)), int64(rng.Intn(600)+1))
		for th := 0; th < threads; th++ {
			if want, got := ownedNaive(l, th), ownedWalk(l, th); !slices.Equal(got, want) {
				t.Fatalf("%+v: thread %d walks %v, owns %v", l, th, got, want)
			}
		}
	}
}
