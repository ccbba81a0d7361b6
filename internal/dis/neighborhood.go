package dis

import (
	"xlupc/internal/core"
	"xlupc/internal/sim"
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
//
//	for each row i of my band: P[i][*] = h(i, *);  upc_barrier
//	for (s = 0; s < neighborhoodSamples; s++) {
//		(r, c) = sample s of my band
//		a = P[r][c];  b = P[r+Dist][c];  d = P[r][c+Dist]
//		compute(hopCompute);  sum += 3a + 5b + 7d
//	}
//	upc_barrier
func Neighborhood(t *core.Thread, p Params, done func(uint64)) { startNeighborhood(t, p, done) }

// startNeighborhood is Neighborhood returning the thread's state,
// through which a test reads the matrix back when done is called.
func startNeighborhood(t *core.Thread, p Params, done func(uint64)) *neighborhood {
	m := &neighborhood{}
	m.init(t, p, done)
	m.do.allocated, m.do.fill, m.do.sample, m.do.read, m.do.computed =
		m.allocated, m.fill, m.sample, m.read, m.computed
	const band = neighborhoodRowsPer * neighborhoodCols
	t.AllAllocC("pixels", band*int64(t.Threads()), 1, band, m.do.allocated)
	return m
}

type neighborhood struct {
	mark
	i    int64    // fill: the next row's first pixel
	band []byte   // fill: the view of the band's rows not yet written
	s    int      // the sample
	k    int      // the sample's pixel being read
	at   [3]int64 // the sample's pixels: itself and its two partners
	px   [3]byte  // the sample pixel and its two partners
	do   struct {
		allocated                    func(*core.SharedArray)
		fill, sample, read, computed func()
	}
}

// allocated takes the view of the thread's band (core.Thread.Local):
// fill hashes each row straight into node memory and then issues its
// PUT, which copies the bytes onto themselves. Nothing reads the band
// before the barrier that ends the fill.
func (m *neighborhood) allocated(a *core.SharedArray) {
	const band = neighborhoodRowsPer * neighborhoodCols
	m.a = a
	m.i = int64(m.t.ID()) * band
	m.band = m.t.Local(a.At(m.i), band)
	m.fill()
}

// fill writes the band's next row, then enters the barrier.
func (m *neighborhood) fill() {
	if len(m.band) == 0 {
		m.t.BarrierC(m.do.sample)
		return
	}
	i, row, mix := m.i, m.band[:neighborhoodCols], m.p.mix()
	for c := range row {
		row[c] = byte(sim.SplitMix64((uint64(i) + uint64(c)) ^ mix))
	}
	m.i += neighborhoodCols
	m.band = m.band[neighborhoodCols:]
	m.t.PutBulkC(m.a.At(i), row, m.do.fill)
}

// sample picks sample pixel m.s across the band and the pair at
// stencil distance below and to the right of it, or ends the program.
// The vertical partner is remote for the bottom Dist rows of the band.
func (m *neighborhood) sample() {
	if m.s == neighborhoodSamples {
		m.t.BarrierC(m.finish)
		return
	}
	const rowsPer, cols = neighborhoodRowsPer, neighborhoodCols
	rows := rowsPer * int64(m.t.Threads())
	s := int64(m.s)
	r := int64(m.t.ID())*rowsPer + (s*131)%rowsPer
	c := (s*197 + int64(m.t.ID())*13) % cols
	r2 := r + neighborhoodDist
	c2 := (c + neighborhoodDist) % cols
	if r2 >= rows {
		r2 -= rows // wrap the bottom band to thread 0
	}
	m.at = [3]int64{r*cols + c, r2*cols + c, r*cols + c2} // vertical partner: possibly remote
	m.k = 0
	m.read()
}

// read reads the sample's pixel m.k.
func (m *neighborhood) read() {
	if m.k == len(m.at) {
		m.t.ComputeC(hopCompute, m.do.computed)
		return
	}
	k := m.k
	m.k++
	m.t.GetBulkC(m.px[k:k+1], m.a.At(m.at[k]), m.do.read)
}

func (m *neighborhood) computed() {
	m.sum += uint64(m.px[0])*3 + uint64(m.px[1])*5 + uint64(m.px[2])*7
	m.s++
	m.sample()
}
