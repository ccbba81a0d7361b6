package dis

import (
	"bytes"
	"encoding/binary"
	"math/bits"

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
//
// A thread holds its block through a privatized view of node memory
// (core.Thread.Local), not a private copy: the init image is hashed
// straight into the view, and the init PUT and every round's snapshot
// GET are issued — they are what the model charges — but copy the bytes
// onto themselves. The view always holds what a private copy
// would have held, because a thread's matches start inside its own
// block (appendMatches appends lo+i with i < len(local)), so no other
// thread ever writes the block; nothing reads a block before the init
// barrier; and no thread writes between a round's snapshot and its scan
// (the 'Z' writes come after the next barrier). A crash restart that
// relocates the chunk leaves the view a plain buffer, and the snapshot
// becomes a real copy again.
//
//	my block B = h(...);  upc_barrier
//	for (round = 0; round < fieldTokens; round++) {
//		snapshot B
//		repeat fieldSegments times: compute(segment);  sample successor node's block
//		read the overhang;  find the round's token in B + overhang
//		upc_barrier;  A[match] = 'Z' for each match;  upc_barrier
//	}
func Field(t *core.Thread, p Params, done func(uint64)) { startField(t, p, done) }

// startField is Field returning the thread's state, through which a
// test reads the array back when done is called.
func startField(t *core.Thread, p Params, done func(uint64)) *field {
	const blk = fieldBlock
	m := &field{}
	m.init(t, p, done)
	m.do.allocated, m.do.filled, m.do.round, m.do.snapped, m.do.scanned, m.do.sampled, m.do.overhung, m.do.write, m.do.next =
		m.allocated, m.filled, m.round, m.snapped, m.scanned, m.sampled, m.overhung, m.write, m.next
	m.n = blk * int64(t.Threads())
	m.lo = int64(t.ID()) * blk
	m.succ = (m.lo + blk) % m.n // start of the successor's block
	// Statistics sample sets are drawn from the same block slot on the
	// next node: always off-node, like the distributed sample sets of
	// the original benchmark's large data quantities.
	m.sampleBase = ((int64(t.ID()) + int64(t.ThreadsPerNode())) % int64(t.Threads())) * blk
	t.AllAllocC("field", m.n, 1, blk, m.do.allocated)
	return m
}

type field struct {
	mark
	n, lo, succ, sampleBase  int64
	local, edge, tok, sample []byte
	matches                  []int64
	rnd, seg, mi             int
	segTime                  sim.Duration
	do                       struct {
		allocated                                                       func(*core.SharedArray)
		filled, round, snapped, scanned, sampled, overhung, write, next func()
	}
}

// allocated fills the thread's block: owners write hash-derived
// "words" over a small alphabet so tokens genuinely occur.
func (m *field) allocated(a *core.SharedArray) {
	m.a = a
	// The view of the block is the init image and every round's
	// snapshot. The overhang lands in edge, behind a copy of the block's
	// tail, and appendMatches looks there for the one match that can
	// straddle the boundary.
	m.local = m.t.Local(a.At(m.lo), fieldBlock)
	m.edge = make([]byte, 2*(fieldTokenLen-1))
	m.tok = make([]byte, fieldTokenLen)
	m.sample = make([]byte, fieldSampleBytes)
	local, lo, mix := m.local, uint64(m.lo), m.p.mix()
	for i := range local {
		local[i] = byte('a' + splitmix64((lo+uint64(i))^mix)%4)
	}
	m.t.PutBulkC(a.At(m.lo), local, m.do.filled)
}

func (m *field) filled() { m.t.BarrierC(m.do.round) }

// round starts round m.rnd: the round's token (the same on every
// thread), then a snapshot of the local block through shared memory.
func (m *field) round() {
	if m.rnd == fieldTokens {
		m.end()
		return
	}
	for i := range m.tok {
		m.tok[i] = byte('a' + m.p.hash(uint64(m.rnd)*31+uint64(i))%4)
	}
	m.t.GetBulkC(m.local, m.a.At(m.lo), m.do.snapped)
}

// snapped starts the segmented scan with interleaved remote statistics
// samples. The per-byte cost is data dependent (matches trigger extra
// work), desynchronizing the threads.
func (m *field) snapped() {
	jitter := 700 + int64(m.p.hash(uint64(m.rnd)*1009+uint64(m.t.ID()))%601) // 0.7x..1.3x
	m.segTime = sim.Time(fieldBlock) * fieldScanPerByte * sim.Time(jitter) / 1000 /
		sim.Time(fieldSegments)
	m.seg = 0
	m.segment()
}

// segment scans segment m.seg, or reads the overhang once all are done.
func (m *field) segment() {
	if m.seg == fieldSegments {
		// Overhang: extend the search across the block boundary.
		m.t.GetBulkC(m.edge[fieldTokenLen-1:], m.a.At(m.succ), m.do.overhung) // wraps: last thread samples thread 0
		return
	}
	m.t.ComputeC(m.segTime, m.do.scanned)
}

func (m *field) scanned() {
	off := (int64(m.seg)*2311 + int64(m.rnd)*977) % (fieldBlock - int64(fieldSampleBytes))
	m.t.GetBulkC(m.sample, m.a.At(m.sampleBase+off), m.do.sampled) // next node's slot: remote
}

func (m *field) sampled() {
	m.sum += lowBits(m.sample)
	m.seg++
	m.segment()
}

// overhung searches the snapshot and the overhang. All threads scanned
// the same snapshot; synchronize, then update the delimiter byte of
// every match ('Z' writes are idempotent, so overhang duplicates are
// harmless and the result is independent of timing and of the cache).
func (m *field) overhung() {
	m.matches = appendMatches(m.matches[:0], m.local, m.edge, m.tok, m.lo, m.n)
	m.sum += uint64(len(m.matches))
	m.mi = 0
	m.t.BarrierC(m.do.write)
}

// write writes the next match's delimiter; after the last, the outer
// loop is sequential across rounds.
func (m *field) write() {
	if m.mi == len(m.matches) {
		m.t.BarrierC(m.do.next)
		return
	}
	pos := m.matches[m.mi]
	m.mi++
	m.t.PutBulkC(m.a.At(pos), fieldDelim, m.do.write)
}

func (m *field) next() {
	m.rnd++
	m.round()
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

// lowBits is the sample statistic: how many bytes of b have their low
// bit set. It counts eight bytes per step (the byte order of a word
// does not change which bits are set), so len(b) is a multiple of 8.
func lowBits(b []byte) uint64 {
	var n int
	for ; len(b) > 0; b = b[8:] {
		n += bits.OnesCount64(binary.LittleEndian.Uint64(b) & 0x0101010101010101)
	}
	return uint64(n)
}

// A sample is whole words for lowBits: this fails to compile otherwise.
var _ = [1]struct{}{}[fieldSampleBytes%8]

// fieldDelim is the byte a match's first position is overwritten with.
var fieldDelim = []byte{'Z'}
