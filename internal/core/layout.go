package core

// Layout captures the block-cyclic distribution of a shared array over
// the UPC threads, plus its packing into per-node memory chunks.
//
// Element i lives in block i/Block; blocks are dealt round-robin to
// threads, so block b is affine to thread b%Threads and is that
// thread's (b/Threads)-th local block. Threads are packed onto nodes
// contiguously (thread t on node t/ThreadsPerNode), and a node's chunk
// concatenates one uniform region per resident thread sized for the
// worst-case block count, so an element's byte offset within its
// node's chunk is computable anywhere from the layout alone — which is
// what lets a cache hit turn into base+offset RDMA with no directory
// involvement at the target.
type Layout struct {
	Threads        int
	ThreadsPerNode int
	ElemSize       int
	Block          int64 // elements per block
	NumElems       int64
	region         int64 // ThreadRegionBytes, computed once by NewLayout
}

// NewLayout builds a layout. A non-positive block size means
// indefinite blocking (the whole array affine to thread 0), per UPC's
// layout qualifier semantics.
func NewLayout(threads, threadsPerNode, elemSize int, block, numElems int64) Layout {
	if block <= 0 {
		block = numElems
		if block <= 0 {
			block = 1
		}
	}
	// A region holds the worst-case number of blocks any thread owns.
	perRound := block * int64(threads)
	blocksPerThread := (numElems + perRound - 1) / perRound
	return Layout{
		Threads:        threads,
		ThreadsPerNode: threadsPerNode,
		ElemSize:       elemSize,
		Block:          block,
		NumElems:       numElems,
		region:         blocksPerThread * block * int64(elemSize),
	}
}

// ThreadRegionBytes is the uniform per-thread region size in a node
// chunk.
func (l Layout) ThreadRegionBytes() int64 { return l.region }

// NodeChunkBytes is the size of the chunk every node allocates: one
// region per resident thread.
func (l Layout) NodeChunkBytes() int64 {
	return int64(l.ThreadsPerNode) * l.ThreadRegionBytes()
}

// Owner reports the UPC thread element i has affinity to.
func (l Layout) Owner(i int64) int {
	return int((i / l.Block) % int64(l.Threads))
}

// NextOwned reports the smallest index ≥ i that is affine to thread,
// or NumElems when there is none — the O(1) cursor every affinity walk
// (Thread.ForAll) steps with, so enumerating a thread's
// elements costs its share of the array rather than a test of every
// index.
func (l Layout) NextOwned(thread int, i int64) int64 {
	if i >= l.NumElems {
		return l.NumElems
	}
	blk := i / l.Block
	ahead := (int64(thread) - blk%int64(l.Threads) + int64(l.Threads)) % int64(l.Threads)
	if ahead == 0 {
		return i // already inside one of thread's blocks
	}
	if next := (blk + ahead) * l.Block; next < l.NumElems {
		return next
	}
	return l.NumElems
}

// Locate reports the node that owns element i and the element's byte
// offset within that node's chunk — what every remote access needs
// before it can look anything up — in three divisions: the block, the
// thread round (the owner's local block), and the node (the owner's
// slot on it). It takes a pointer: through a value receiver, NodeOf and
// ChunkOffset copied the whole layout per call and ran 3× slower.
func (l *Layout) Locate(i int64) (node int, off int64) {
	blk := i / l.Block
	phase := i - blk*l.Block
	threads, perNode := int64(l.Threads), int64(l.ThreadsPerNode)
	localBlock := blk / threads
	owner := blk - localBlock*threads
	n := owner / perNode
	slot := owner - n*perNode
	return int(n), slot*l.region + (localBlock*l.Block+phase)*int64(l.ElemSize)
}

// NodeOf reports the node that owns element i.
func (l Layout) NodeOf(i int64) int {
	n, _ := l.Locate(i)
	return n
}

// Phase reports upc_phaseof: the element's position within its block.
func (l Layout) Phase(i int64) int64 { return i % l.Block }

// ChunkOffset reports the byte offset of element i within its owning
// node's chunk.
func (l Layout) ChunkOffset(i int64) int64 {
	_, off := l.Locate(i)
	return off
}

// ContigRun reports how many elements starting at i are contiguous in
// the owning node's memory and owned by the same thread — the longest
// run a bulk transfer can move in one message. Within a block that is
// the rest of the block; consecutive blocks of the same thread are
// also locally contiguous, but a run never spans into another thread's
// block, so for Threads > 1 the run ends at the block boundary.
func (l Layout) ContigRun(i int64) int64 {
	rest := l.Block - l.Phase(i)
	if l.Threads == 1 {
		rest = l.NumElems - i // single affinity, fully contiguous
	}
	if max := l.NumElems - i; rest > max {
		rest = max
	}
	return rest
}
