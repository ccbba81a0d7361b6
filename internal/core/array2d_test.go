package core

import (
	"bytes"
	"testing"
	"testing/quick"

	"xlupc/internal/transport"
)

func TestArray2DOwnershipPattern(t *testing.T) {
	// 4 threads, 8x8 matrix, 2x2 tiles: 16 tiles dealt round-robin in
	// row-major tile order.
	mustRun(t, cfg(4, 2, transport.GM(), NoCache()), func(th *Thread) {
		m := th.AllAlloc2D("M", 8, 8, 8, 2, 2)
		if th.ID() != 0 {
			th.Barrier()
			return
		}
		for r := int64(0); r < 8; r++ {
			for c := int64(0); c < 8; c++ {
				wantTile := (r/2)*4 + c/2
				if got := m.Owner(r, c); got != int(wantTile%4) {
					t.Errorf("Owner(%d,%d) = %d, want %d", r, c, got, wantTile%4)
				}
			}
		}
		th.Barrier()
	})
}

func TestArray2DIndexBijective(t *testing.T) {
	f := func(rb8, cb8 uint8) bool {
		rb := int64(rb8%4) + 1
		cb := int64(cb8%4) + 1
		rows, cols := rb*3, cb*5
		m := &SharedArray2D{
			A:    &SharedArray{l: NewLayout(4, 2, 8, rb*cb, rows*cols), name: "m"},
			Rows: rows, Cols: cols, RBlock: rb, CBlock: cb,
			tilesPerRow: cols / cb,
		}
		seen := make(map[int64]bool)
		for r := int64(0); r < rows; r++ {
			for c := int64(0); c < cols; c++ {
				i := m.Index(r, c)
				if i < 0 || i >= rows*cols || seen[i] {
					return false
				}
				seen[i] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestArray2DPutGetIntegrity(t *testing.T) {
	const rows, cols = 12, 16
	mustRun(t, cfg(4, 2, transport.GM(), DefaultCache()), func(th *Thread) {
		m := th.AllAlloc2D("M", rows, cols, 8, 3, 4)
		for r := int64(0); r < rows; r++ {
			for c := int64(0); c < cols; c++ {
				if m.Owner(r, c) == th.ID() {
					th.PutUint64(m.At(r, c), uint64(r*100+c))
				}
			}
		}
		th.Barrier()
		for r := int64(0); r < rows; r++ {
			for c := int64(0); c < cols; c++ {
				if got := th.GetUint64(m.At(r, c)); got != uint64(r*100+c) {
					t.Errorf("thread %d: M[%d,%d] = %d", th.ID(), r, c, got)
				}
			}
		}
		th.Barrier()
	})
}

func TestArray2DRowTransfers(t *testing.T) {
	const rows, cols = 8, 24
	mustRun(t, cfg(4, 2, transport.LAPI(), DefaultCache()), func(th *Thread) {
		m := th.AllAlloc2D("M", rows, cols, 1, 2, 6)
		th.Barrier()
		if th.ID() == 0 {
			row := make([]byte, cols)
			for i := range row {
				row[i] = byte(i * 5)
			}
			th.PutRow(m, 3, 0, row) // crosses 4 tiles, several owners
			th.Fence()
			got := make([]byte, cols)
			for c := int64(0); c < cols; c++ {
				th.GetBulk(got[c:c+1], m.At(3, c))
			}
			if !bytes.Equal(got, row) {
				t.Errorf("row roundtrip mismatch: %v", got)
			}
			// Partial, offset segment.
			th.PutRow(m, 5, 7, row[:11])
			th.Fence()
			for c := int64(0); c < cols; c++ {
				want := byte(0)
				if c >= 7 && c < 18 {
					want = row[c-7]
				}
				var b [1]byte
				th.GetBulk(b[:], m.At(5, c))
				if b[0] != want {
					t.Errorf("partial row: column %d = %d, want %d", c, b[0], want)
				}
			}
		}
		th.Barrier()
	})
}

func TestArray2DRowRun(t *testing.T) {
	m := &SharedArray2D{Rows: 8, Cols: 10, RBlock: 2, CBlock: 4, tilesPerRow: 3,
		A: &SharedArray{l: NewLayout(2, 1, 1, 8, 80), name: "m"}}
	m.Cols = 8 // keep divisible for the checker
	if got := m.RowRun(0, 0); got != 4 {
		t.Fatalf("RowRun(0,0) = %d", got)
	}
	if got := m.RowRun(0, 3); got != 1 {
		t.Fatalf("RowRun(0,3) = %d", got)
	}
	if got := m.RowRun(0, 6); got != 2 {
		t.Fatalf("RowRun(0,6) = %d", got)
	}
}

func TestArray2DValidation(t *testing.T) {
	mustRun(t, cfg(2, 1, transport.GM(), NoCache()), func(th *Thread) {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("indivisible tiling accepted")
				}
			}()
			th.AllAlloc2D("bad", 7, 8, 8, 2, 2)
		}()
	})
}

func TestArray2DTileLocalityBenefit(t *testing.T) {
	// A tiled layout keeps a tile's columns on one node; a row-banded
	// layout spreads a column segment across... the point here is just
	// that 2D tiles produce fewer distinct target nodes for a tile
	// walk than the equivalent row-cyclic layout does for a column
	// walk. Verify a whole tile is single-owner.
	mustRun(t, cfg(4, 2, transport.GM(), NoCache()), func(th *Thread) {
		m := th.AllAlloc2D("M", 16, 16, 8, 4, 4)
		if th.ID() == 0 {
			owner := m.Owner(4, 8)
			for r := int64(4); r < 8; r++ {
				for c := int64(8); c < 12; c++ {
					if m.Owner(r, c) != owner {
						t.Errorf("tile split across owners at (%d,%d)", r, c)
					}
				}
			}
		}
		th.Barrier()
	})
}
