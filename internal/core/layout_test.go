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

// blockCyclic is the oracle for Locate: the block-cyclic definition
// written out one quantity at a time. Element i lies in block i/B,
// which thread (i/B)%T owns as its (i/B)/T-th local block, at phase
// i%B; the owner sits in slot owner%P of node owner/P, and every slot
// reserves a region of the worst-case ceil(N/(B*T)) blocks.
func blockCyclic(threads, perNode, elemSize int, block, elems, i int64) (owner, node int, off int64) {
	owner = int((i / block) % int64(threads))
	node = owner / perNode
	slot := int64(owner % perNode)
	localBlock := (i / block) / int64(threads)
	phase := i % block
	region := (elems + block*int64(threads) - 1) / (block * int64(threads)) * block * int64(elemSize)
	return owner, node, slot*region + (localBlock*block+phase)*int64(elemSize)
}

// FuzzLayoutChunkOffset checks the layout arithmetic against the
// block-cyclic definition on arbitrary shapes: Locate, NodeOf,
// ChunkOffset and Owner all agree with blockCyclic, and any in-range
// element lands inside its node's chunk, aligned to the element size.
// CI runs it for ten seconds (`go test -run '^$' -fuzz
// FuzzLayoutChunkOffset -fuzztime 10s ./internal/core`); the seed
// corpus runs under plain `go test`, and includes the shapes the
// figure sweeps allocate.
func FuzzLayoutChunkOffset(f *testing.F) {
	f.Add(uint16(3), uint8(1), uint8(7), uint32(2), uint32(99), uint32(17))
	f.Add(uint16(0), uint8(0), uint8(0), uint32(0), uint32(0), uint32(0))
	f.Add(uint16(15), uint8(3), uint8(7), uint32(31), uint32(4999), uint32(4999))
	// Field: 64 KiB byte blocks at 256 threads on 64 nodes.
	f.Add(uint16(255), uint8(3), uint8(0), uint32(64<<10-1), uint32(256*64<<10-1), uint32(5*64<<10+4095))
	// Pointer: 256 8-byte words per thread at 512 threads on 128 nodes.
	f.Add(uint16(511), uint8(3), uint8(7), uint32(255), uint32(512*256-1), uint32(300*256+17))
	// The largest LAPI scale: 448 threads on 28 nodes.
	f.Add(uint16(447), uint8(15), uint8(7), uint32(255), uint32(448*256-1), uint32(447*256+255))
	f.Fuzz(func(t *testing.T, th uint16, tpn, esz uint8, blk, n, idx uint32) {
		threads := int(th%1024) + 1
		perNode := int(tpn%32) + 1
		for threads%perNode != 0 {
			perNode--
		}
		elemSize := int(esz%16) + 1
		block := int64(blk%(1<<17)) + 1
		elems := int64(n%(1<<26)) + 1
		i := int64(idx) % elems
		l := NewLayout(threads, perNode, elemSize, block, elems)
		owner, node, off := blockCyclic(threads, perNode, elemSize, block, elems, i)
		if got := l.Owner(i); got != owner {
			t.Fatalf("%+v: Owner(%d) = %d, want %d", l, i, got, owner)
		}
		if gn, goff := l.Locate(i); gn != node || goff != off {
			t.Fatalf("%+v: Locate(%d) = (%d, %d), want (%d, %d)", l, i, gn, goff, node, off)
		}
		if l.NodeOf(i) != node || l.ChunkOffset(i) != off {
			t.Fatalf("%+v: NodeOf/ChunkOffset(%d) = %d/%d, want %d/%d", l, i, l.NodeOf(i), l.ChunkOffset(i), node, off)
		}
		if node < 0 || node >= threads/perNode {
			t.Fatalf("node %d out of range", node)
		}
		if off < 0 || off+int64(elemSize) > l.NodeChunkBytes() {
			t.Fatalf("offset %d outside chunk %d (i=%d)", off, l.NodeChunkBytes(), i)
		}
		if off%int64(elemSize) != 0 {
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
