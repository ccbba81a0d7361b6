package dis

import (
	"bytes"

	"xlupc/internal/core"
	"xlupc/internal/sim"
)

// Field is the Field Stressmark: regular access to a large quantity of
// data — a string array searched for token strings that delimit sample
// sets, from which simple statistics are collected; the delimiters
// themselves are updated in memory. The array is blocked, the outer
// loop over tokens is sequential (the array mutates every round), and
// the inner search is parallel: each thread scans its own block plus
// an overhang of token width into the next thread's block.
//
// Scanning is modeled as segmented local computation; between
// segments the thread reads a small statistics sample from its
// successor's block (sample sets straddle block boundaries). Those
// remote reads land while every other CPU is mid-scan — on a transport
// with no computation/communication overlap (GM) the uncached
// active-message path stalls until a core frees, which is exactly the
// "abnormally large remote access times at the overhangs" the paper's
// Paraver traces exposed; cached RDMA bypasses the CPU and the waits
// vanish.
func Field(t *core.Thread, p Params) uint64 {
	blk := p.FieldBlock
	n := blk * int64(t.Threads())
	a := t.AllAlloc("field", n, 1, blk)

	// One block-sized buffer per thread is the init image and every
	// round's snapshot. It is exactly the block (64 KB is a whole number
	// of pages; seven bytes more would cost every thread a ninth page):
	// the overhang lands in edge, behind a copy of the block's tail, and
	// appendMatches looks there for the one match that can straddle the
	// boundary.
	tokLen := p.FieldTokenLen
	local := make([]byte, blk)
	edge := make([]byte, 2*(tokLen-1))

	// Owners fill their block with hash-derived "words" over a small
	// alphabet so tokens genuinely occur.
	lo := int64(t.ID()) * blk
	for i := range local {
		local[i] = byte('a' + p.hash(uint64(lo)+uint64(i))%4)
	}
	t.PutBulk(a.At(lo), local)
	t.Barrier()

	var found uint64
	succ := (lo + blk) % n // start of the successor's block
	// Statistics sample sets are drawn from the same block slot on the
	// next node: always off-node, like the distributed sample sets of
	// the original benchmark's large data quantities.
	sampleBase := ((int64(t.ID()) + int64(t.ThreadsPerNode())) % int64(t.Threads())) * blk
	tok := make([]byte, tokLen)
	sample := make([]byte, p.FieldSampleBytes)
	var matches []int64
	for round := 0; round < p.FieldTokens; round++ {
		// The token for this round (same on every thread).
		for i := range tok {
			tok[i] = byte('a' + p.hash(uint64(round)*31+uint64(i))%4)
		}

		// Snapshot the local block through shared memory.
		t.GetBulk(local, a.At(lo))

		// Segmented scan with interleaved remote statistics samples.
		// The per-byte cost is data dependent (matches trigger extra
		// work), desynchronizing the threads.
		jitter := 700 + int64(p.hash(uint64(round)*1009+uint64(t.ID()))%601) // 0.7x..1.3x
		segTime := sim.Time(blk) * p.FieldScanPerByte * sim.Time(jitter) / 1000 /
			sim.Time(p.FieldSegments)
		for seg := 0; seg < p.FieldSegments; seg++ {
			t.Compute(segTime)
			off := (int64(seg)*2311 + int64(round)*977) % (blk - int64(p.FieldSampleBytes))
			t.GetBulk(sample, a.At(sampleBase+off)) // next node's slot: remote
			for _, b := range sample {
				found += uint64(b) & 1
			}
		}

		// Overhang: extend the search across the block boundary.
		t.GetBulk(edge[tokLen-1:], a.At(succ)) // wraps: last thread samples thread 0

		matches = appendMatches(matches[:0], local, edge, tok, lo, n)
		found += uint64(len(matches))
		// All threads scanned the same snapshot; synchronize, then
		// update the delimiter byte of every match ('Z' writes are
		// idempotent, so overhang duplicates are harmless and the
		// result is independent of timing and of the cache).
		t.Barrier()
		for _, pos := range matches {
			t.Put(a.At(pos), fieldDelim)
		}
		t.Barrier() // the outer loop is sequential across rounds
	}
	return found
}

// appendMatches searches a thread's block snapshot (local, starting at
// array index lo) plus the overhang for tok and appends the array index
// of every non-overlapping match, in the order the original
// byte-by-byte scan over block+overhang finds them. edge's second half
// holds the overhang (the first len(tok)-1 bytes of the successor's
// block); its first half is scratch for the block's tail.
func appendMatches(matches []int64, local, edge, tok []byte, lo, n int64) []int64 {
	i := 0
	for i+len(tok) <= len(local) {
		j := bytes.Index(local[i:], tok)
		if j < 0 {
			break
		}
		i += j
		matches = append(matches, (lo+int64(i))%n)
		i += len(tok)
	}
	// What is left is a match that starts in the block's last len(tok)-1
	// bytes, at or after i, and ends in the overhang. Two such matches
	// would overlap, so there is at most one.
	tail := len(edge) / 2
	if s := max(i, len(local)-tail); s < len(local) {
		copy(edge, local[len(local)-tail:])
		if j := bytes.Index(edge[s-(len(local)-tail):], tok); j >= 0 {
			matches = append(matches, (lo+int64(s+j))%n)
		}
	}
	return matches
}

// fieldDelim is the byte a match's first position is overwritten with.
var fieldDelim = []byte{'Z'}
