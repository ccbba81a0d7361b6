package core

import "fmt"

// SharedArray2D is a multi-blocked two-dimensional shared array (the
// multidimensional blocking of Barton et al. [7], which the paper's
// SVD supports as a first-class object kind): the matrix is cut into
// RBlock×CBlock tiles dealt round-robin to threads, so a thread owns a
// scattered set of whole tiles rather than a band of rows.
//
// Internally the matrix is a 1-D shared array in tile-major order with
// the tile as its block: element (r,c) linearizes to
//
//	tile(r,c)*tileElems + (r%RBlock)*CBlock + c%CBlock
//
// which makes tile ownership exactly block-cyclic ownership of the
// underlying array, so every transfer, cache and protocol path is the
// same code the 1-D arrays use.
type SharedArray2D struct {
	A      *SharedArray
	Rows   int64
	Cols   int64
	RBlock int64
	CBlock int64

	tilesPerRow int64
}

// AllAlloc2D collectively allocates a Rows×Cols matrix of elemSize-
// byte elements, tiled RBlock×CBlock. Rows must divide by RBlock and
// Cols by CBlock (pad the matrix otherwise — partial tiles are not
// supported).
func (t *Thread) AllAlloc2D(name string, rows, cols int64, elemSize int, rblock, cblock int64) *SharedArray2D {
	if rows <= 0 || cols <= 0 || rblock <= 0 || cblock <= 0 {
		panic(fmt.Sprintf("core: AllAlloc2D(%s) with nonpositive dimensions", name))
	}
	if rows%rblock != 0 || cols%cblock != 0 {
		panic(fmt.Sprintf("core: AllAlloc2D(%s): %dx%d not divisible by %dx%d tiles",
			name, rows, cols, rblock, cblock))
	}
	a := t.AllAlloc(name, rows*cols, elemSize, rblock*cblock)
	return &SharedArray2D{
		A: a, Rows: rows, Cols: cols, RBlock: rblock, CBlock: cblock,
		tilesPerRow: cols / cblock,
	}
}

func (m *SharedArray2D) check(r, c int64) {
	if r < 0 || r >= m.Rows || c < 0 || c >= m.Cols {
		panic(fmt.Sprintf("core: %s[%d,%d] out of range (%dx%d)", m.A.name, r, c, m.Rows, m.Cols))
	}
}

// tile reports the tile number of (r, c) in row-major tile order.
func (m *SharedArray2D) tile(r, c int64) int64 {
	return (r/m.RBlock)*m.tilesPerRow + c/m.CBlock
}

// Index linearizes (r, c) into the underlying 1-D array.
func (m *SharedArray2D) Index(r, c int64) int64 {
	m.check(r, c)
	tileElems := m.RBlock * m.CBlock
	return m.tile(r, c)*tileElems + (r%m.RBlock)*m.CBlock + c%m.CBlock
}

// At returns a pointer-to-shared for element (r, c).
func (m *SharedArray2D) At(r, c int64) Ref { return m.A.At(m.Index(r, c)) }

// Owner reports the thread element (r, c) is affine to.
func (m *SharedArray2D) Owner(r, c int64) int { return m.A.Owner(m.Index(r, c)) }

// RowRun reports how many elements of row r starting at column c are
// contiguous in their owner's memory: the rest of the tile row.
func (m *SharedArray2D) RowRun(r, c int64) int64 {
	m.check(r, c)
	run := m.CBlock - c%m.CBlock
	if rest := m.Cols - c; run > rest {
		run = rest
	}
	return run
}

// PutRow writes cols elements into row r starting at column c,
// splitting at tile boundaries.
func (t *Thread) PutRow(m *SharedArray2D, r, c int64, src []byte) {
	es := int64(m.A.ElemSize())
	n := int64(len(src)) / es
	for n > 0 {
		run := m.RowRun(r, c)
		if run > n {
			run = n
		}
		t.PutBulk(m.At(r, c), src[:run*es])
		src = src[run*es:]
		c += run
		n -= run
	}
}
