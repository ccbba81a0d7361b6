package dis

// Continuation-mode ports of the four stressmarks, for
// core.Runtime.RunCont: each mirrors its blocking twin statement for
// statement (same shared-memory operations in the same order, same
// checksum arithmetic), so a run in either execution mode produces the
// same checksum and bit-identical RunStats. When editing one side, edit
// the other.

import (
	"fmt"

	"xlupc/internal/core"
	"xlupc/internal/sim"
)

// ContFunc is a stressmark body in continuation-passing style: run
// under core.Runtime.RunCont on every thread, delivering the thread's
// checksum contribution to done.
type ContFunc func(t *core.Thread, p Params, done func(check uint64))

// SuiteC enumerates the continuation-mode stressmarks, index-aligned
// with Suite.
func SuiteC() []struct {
	Name string
	Fn   ContFunc
} {
	return []struct {
		Name string
		Fn   ContFunc
	}{
		{"pointer", PointerC},
		{"update", UpdateC},
		{"neighborhood", NeighborhoodC},
		{"field", FieldC},
	}
}

// ByNameC resolves a continuation-mode stressmark.
func ByNameC(name string) (ContFunc, error) {
	for _, s := range SuiteC() {
		if s.Name == name {
			return s.Fn, nil
		}
	}
	return nil, fmt.Errorf("dis: unknown stressmark %q", name)
}

// PointerC is Pointer in continuation-passing style.
func PointerC(t *core.Thread, p Params, done func(uint64)) {
	n := p.PointerLen
	blk := (n + int64(t.Threads()) - 1) / int64(t.Threads())
	t.AllAllocC("pointer", n, 8, blk, func(a *core.SharedArray) {
		t.ForAllC(a, func(i int64, next func()) {
			t.PutUint64C(a.At(i), p.hash(uint64(i)^0xF00D)%uint64(n), next)
		}, func() {
			t.BarrierC(func() { pointerChase(t, p, a, done) })
		})
	})
}

func pointerChase(t *core.Thread, p Params, a *core.SharedArray, done func(uint64)) {
	n := p.PointerLen
	pos := int64(p.hash(uint64(t.ID())^0xBEEF) % uint64(n))
	var check uint64
	var buf [8]byte
	hop := 0
	sim.Loop(func(next func()) {
		if hop == p.PointerHops {
			t.BarrierC(func() { done(check) })
			return
		}
		h := hop
		hop++
		after := func(v uint64) {
			t.ComputeC(p.HopCompute, func() {
				check ^= v + uint64(h)
				pos = int64(v)
				next()
			})
		}
		if p.SplitPhase {
			// Strict dependency: the handle retires immediately, exactly
			// like the blocking build.
			t.NbGetC(buf[:], a.At(pos), func(hd core.Handle) {
				t.SyncC(hd, func() { after(byteOrder.Uint64(buf[:])) })
			})
		} else {
			t.GetUint64C(a.At(pos), after)
		}
	})
}

// UpdateC is Update in continuation-passing style.
func UpdateC(t *core.Thread, p Params, done func(uint64)) {
	n := p.UpdateLen
	blk := (n + int64(t.Threads()) - 1) / int64(t.Threads())
	t.AllAllocC("update", n, 8, blk, func(a *core.SharedArray) {
		t.ForAllC(a, func(i int64, next func()) {
			t.PutUint64C(a.At(i), p.hash(uint64(i)^0xCAFE)%uint64(n), next)
		}, func() {
			t.BarrierC(func() { updateHops(t, p, a, done) })
		})
	})
}

func updateHops(t *core.Thread, p Params, a *core.SharedArray, done func(uint64)) {
	var check uint64
	if t.ID() != 0 {
		t.BarrierC(func() { done(check) })
		return
	}
	n := p.UpdateLen
	pos := int64(p.hash(0x5EED) % uint64(n))
	bufs := make([][8]byte, p.UpdateReads)
	hop := 0
	sim.Loop(func(nextHop func()) {
		if hop == p.UpdateHops {
			t.FenceC(func() {
				t.BarrierC(func() { done(check) })
			})
			return
		}
		hop++
		var nextv uint64
		afterReads := func() {
			t.ComputeC(p.UpdateHopCompute, func() {
				if p.Atomic {
					// The successor write is fused into the FetchAdd.
					pos = int64(nextv)
					nextHop()
					return
				}
				// Update one location, preserving the successor structure.
				t.PutUint64C(a.At(pos), nextv, func() {
					pos = int64(nextv)
					nextHop()
				})
			})
		}
		switch {
		case p.Atomic && p.SplitPhase:
			// One-message RMW, split-phase (mirrors the blocking build).
			t.NbFetchAddC(a.At(pos), 0, &nextv, func(core.Handle) {
				r := 1
				sim.Loop(func(nextIssue func()) {
					if r == p.UpdateReads {
						t.SyncAllC(func() {
							check ^= nextv
							for rr := 1; rr < p.UpdateReads; rr++ {
								check ^= byteOrder.Uint64(bufs[rr][:]) + uint64(rr)
							}
							afterReads()
						})
						return
					}
					rr := r
					r++
					at := (pos + int64(rr)*97) % n
					t.NbGetC(bufs[rr][:], a.At(at), func(core.Handle) { nextIssue() })
				})
			})
		case p.Atomic:
			// One-message RMW: FetchAdd(pos, 0), then the remaining reads.
			t.FetchAddC(a.At(pos), 0, func(v uint64) {
				nextv = v
				check ^= v
				r := 1
				sim.Loop(func(nextRead func()) {
					if r == p.UpdateReads {
						afterReads()
						return
					}
					rr := r
					r++
					at := (pos + int64(rr)*97) % n
					t.GetUint64C(a.At(at), func(v uint64) {
						check ^= v + uint64(rr)
						nextRead()
					})
				})
			})
		case p.SplitPhase:
			r := 0
			sim.Loop(func(nextIssue func()) {
				if r == p.UpdateReads {
					t.SyncAllC(func() {
						for rr := 0; rr < p.UpdateReads; rr++ {
							v := byteOrder.Uint64(bufs[rr][:])
							if rr == 0 {
								nextv = v
							}
							check ^= v + uint64(rr)
						}
						afterReads()
					})
					return
				}
				rr := r
				r++
				at := (pos + int64(rr)*97) % n
				t.NbGetC(bufs[rr][:], a.At(at), func(core.Handle) { nextIssue() })
			})
		default:
			r := 0
			sim.Loop(func(nextRead func()) {
				if r == p.UpdateReads {
					afterReads()
					return
				}
				rr := r
				r++
				at := (pos + int64(rr)*97) % n
				t.GetUint64C(a.At(at), func(v uint64) {
					if rr == 0 {
						nextv = v
					}
					check ^= v + uint64(rr)
					nextRead()
				})
			})
		}
	})
}

// NeighborhoodC is Neighborhood in continuation-passing style.
func NeighborhoodC(t *core.Thread, p Params, done func(uint64)) {
	rowsPer := p.NeighborhoodRowsPer
	cols := p.NeighborhoodCols
	rows := rowsPer * int64(t.Threads())
	n := rows * cols
	t.AllAllocC("pixels", n, 1, rowsPer*cols, func(a *core.SharedArray) {
		// Owners fill their band.
		lo := int64(t.ID()) * rowsPer * cols
		hi := lo + rowsPer*cols
		i := lo
		row := make([]byte, cols)
		sim.Loop(func(next func()) {
			if i >= hi {
				t.BarrierC(func() { neighborhoodSample(t, p, a, done) })
				return
			}
			for c := range row {
				row[c] = byte(p.hash(uint64(i) + uint64(c)))
			}
			at := i
			i += cols
			t.PutBulkC(a.At(at), row, next)
		})
	})
}

func neighborhoodSample(t *core.Thread, p Params, a *core.SharedArray, done func(uint64)) {
	rowsPer := p.NeighborhoodRowsPer
	cols := p.NeighborhoodCols
	rows := rowsPer * int64(t.Threads())
	var sum uint64
	var px [3]byte // the sample pixel and its two partners
	myTopRow := int64(t.ID()) * rowsPer
	s := 0
	sim.Loop(func(next func()) {
		if s == p.NeighborhoodSamples {
			t.BarrierC(func() { done(sum) })
			return
		}
		ss := int64(s)
		s++
		r := myTopRow + (ss*131)%rowsPer
		c := (ss*197 + int64(t.ID())*13) % cols
		r2 := r + p.NeighborhoodDist
		c2 := (c + p.NeighborhoodDist) % cols
		if r2 >= rows {
			r2 -= rows // wrap the bottom band to thread 0
		}
		t.GetBulkC(px[0:1], a.At(r*cols+c), func() {
			t.GetBulkC(px[1:2], a.At(r2*cols+c), func() { // vertical partner: possibly remote
				t.GetBulkC(px[2:3], a.At(r*cols+c2), func() { // horizontal partner: local band
					t.ComputeC(p.HopCompute, func() {
						sum += uint64(px[0])*3 + uint64(px[1])*5 + uint64(px[2])*7
						next()
					})
				})
			})
		})
	})
}

// FieldC is Field in continuation-passing style.
func FieldC(t *core.Thread, p Params, done func(uint64)) {
	blk := p.FieldBlock
	n := blk * int64(t.Threads())
	t.AllAllocC("field", n, 1, blk, func(a *core.SharedArray) {
		// Init image and every round's snapshot (see Field).
		local := make([]byte, blk)
		lo := int64(t.ID()) * blk
		for i := range local {
			local[i] = byte('a' + p.hash(uint64(lo)+uint64(i))%4)
		}
		t.PutBulkC(a.At(lo), local, func() {
			t.BarrierC(func() { fieldRounds(t, p, a, local, done) })
		})
	})
}

func fieldRounds(t *core.Thread, p Params, a *core.SharedArray, local []byte, done func(uint64)) {
	blk := p.FieldBlock
	n := blk * int64(t.Threads())
	lo := int64(t.ID()) * blk
	var found uint64
	tokLen := p.FieldTokenLen
	succ := (lo + blk) % n
	sampleBase := ((int64(t.ID()) + int64(t.ThreadsPerNode())) % int64(t.Threads())) * blk
	tok := make([]byte, tokLen)
	edge := make([]byte, 2*(tokLen-1))
	sample := make([]byte, p.FieldSampleBytes)
	var matches []int64
	round := 0
	sim.Loop(func(nextRound func()) {
		if round == p.FieldTokens {
			done(found)
			return
		}
		rd := round
		round++
		for i := range tok {
			tok[i] = byte('a' + p.hash(uint64(rd)*31+uint64(i))%4)
		}
		// Snapshot the local block through shared memory.
		t.GetBulkC(local, a.At(lo), func() {
			jitter := 700 + int64(p.hash(uint64(rd)*1009+uint64(t.ID()))%601)
			segTime := sim.Time(blk) * p.FieldScanPerByte * sim.Time(jitter) / 1000 /
				sim.Time(p.FieldSegments)
			seg := 0
			sim.Loop(func(nextSeg func()) {
				if seg == p.FieldSegments {
					// Overhang: extend the search across the block boundary.
					t.GetBulkC(edge[tokLen-1:], a.At(succ), func() {
						matches = appendMatches(matches[:0], local, edge, tok, lo, n)
						found += uint64(len(matches))
						t.BarrierC(func() {
							mi := 0
							sim.Loop(func(nextPut func()) {
								if mi == len(matches) {
									t.BarrierC(nextRound) // the outer loop is sequential
									return
								}
								pos := matches[mi]
								mi++
								t.PutC(a.At(pos), fieldDelim, nextPut)
							})
						})
					})
					return
				}
				sg := int64(seg)
				seg++
				t.ComputeC(segTime, func() {
					off := (sg*2311 + int64(rd)*977) % (blk - int64(p.FieldSampleBytes))
					t.GetBulkC(sample, a.At(sampleBase+off), func() { // next node's slot: remote
						for _, b := range sample {
							found += uint64(b) & 1
						}
						nextSeg()
					})
				})
			})
		})
	})
}
