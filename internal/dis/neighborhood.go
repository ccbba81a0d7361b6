package dis

import (
	"xlupc/internal/core"
)

// Neighborhood is the Neighborhood Stressmark: a stencil prototype
// over a two-dimensional pixel matrix, reading pixel pairs with a
// fixed spatial relationship. The matrix is block-distributed row
// major — one band of neighborhoodRowsPer rows per thread — so
// accesses are local or remote depending on the stencil distance and
// pixel position: the vertical partner of a pixel in the bottom Dist
// rows of a band lives in the next thread's band. With the paper's
// stencil distance that makes roughly 3/16 of the pair accesses
// potentially remote at every machine size, and each thread only ever
// talks to its band neighbours — the well-behaved pattern whose cache
// working set stays tiny (§4.5, Figure 8b).
func Neighborhood(t *core.Thread, p Params) uint64 {
	const rowsPer, cols = neighborhoodRowsPer, neighborhoodCols
	rows := rowsPer * int64(t.Threads())
	n := rows * cols
	a := t.AllAlloc("pixels", n, 1, rowsPer*cols)

	// Owners fill their band.
	lo := int64(t.ID()) * rowsPer * cols
	hi := lo + rowsPer*cols
	row := make([]byte, cols)
	for i := lo; i < hi; i += cols {
		for c := range row {
			row[c] = byte(p.hash(uint64(i) + uint64(c)))
		}
		t.PutBulk(a.At(i), row)
	}
	t.Barrier()

	// Sample pixels across the band; for each, read the pair at
	// stencil distance below and to the right. The vertical partner
	// is remote for the bottom `Dist` rows of the band.
	var sum uint64
	var px [3]byte // the sample pixel and its two partners
	myTopRow := int64(t.ID()) * rowsPer
	for s := 0; s < neighborhoodSamples; s++ {
		r := myTopRow + (int64(s)*131)%rowsPer
		c := (int64(s)*197 + int64(t.ID())*13) % cols
		r2 := r + neighborhoodDist
		c2 := (c + neighborhoodDist) % cols
		if r2 >= rows {
			r2 -= rows // wrap the bottom band to thread 0
		}
		t.GetBulk(px[0:1], a.At(r*cols+c))
		t.GetBulk(px[1:2], a.At(r2*cols+c)) // vertical partner: possibly remote
		t.GetBulk(px[2:3], a.At(r*cols+c2)) // horizontal partner: local band
		t.Compute(hopCompute)
		sum += uint64(px[0])*3 + uint64(px[1])*5 + uint64(px[2])*7
	}
	t.Barrier()
	return sum
}
