// Package apps provides application-grade UPC kernels beyond the DIS
// stressmarks: a conjugate-gradient solver and a bucket integer sort,
// in the style of the NAS CG and IS benchmarks whose UPC ports the
// paper's group used to characterize shared-variable usage (§4.5).
// They exercise the full runtime surface — block-cyclic arrays, bulk
// and element transfers, float reductions, atomics and barriers — and
// self-verify their results. Their sizes are constants of the package:
// a kernel takes nothing but the thread it runs on.
package apps

import (
	"fmt"
	"math"

	"xlupc/internal/core"
	"xlupc/internal/sim"
)

// The conjugate-gradient kernel's sizes, test-friendly.
const (
	cgRowsPerThread  = 48 // matrix dimension = cgRowsPerThread * THREADS
	cgNonzerosPerRow = 6
	cgIters          = 8
	cgFlopCost       = 2 * sim.Ns // modeled time per multiply-add
)

// CGResult reports the solve.
type CGResult struct {
	Rho0, RhoFinal float64 // initial and final residual norms (squared)
	Verified       bool    // residual decreased by at least 10x
}

func cgHash(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// CG runs a fixed number of conjugate-gradient iterations on a
// deterministic sparse, symmetric, diagonally dominant matrix
// distributed by row blocks, solving A·x = b from x = 0. The search
// vector p is the only globally read shared array — its remote
// accesses each matvec are the communication the address cache
// accelerates. Every thread returns the same CGResult.
func CG(t *core.Thread) CGResult {
	const rowsPer, nnz = cgRowsPerThread, cgNonzerosPerRow
	n := int64(rowsPer * t.Threads())
	lo := int64(t.ID()) * rowsPer

	// Shared search vector; everything else lives in private memory.
	ps := t.AllAlloc("cg.p", n, 8, rowsPer)

	// Deterministic sparse row structure: off-diagonal columns are
	// hash-derived; the diagonal dominates, making A SPD. A is
	// symmetric by construction: entry (i, j) uses the unordered pair
	// hash, and j appears in i's column list iff i appears in j's.
	cols := func(i int64) []int64 {
		out := make([]int64, 0, nnz)
		for k := int64(0); k < nnz; k++ {
			out = append(out, int64(cgHash(uint64(i)*131+uint64(k))%uint64(n)))
		}
		return out
	}
	aij := func(i, j int64) float64 {
		if i == j {
			return float64(2*nnz) + 4 // dominant diagonal
		}
		lo8, hi8 := i, j
		if lo8 > hi8 {
			lo8, hi8 = hi8, lo8
		}
		return 0.5 + float64(cgHash(uint64(lo8)*1_000_003+uint64(hi8))%1000)/2000
	}
	// Symmetrized adjacency: row i touches j if j ∈ cols(i) or i ∈ cols(j).
	// For simplicity each thread materializes its rows' neighbour sets.
	myCols := make([][]int64, rowsPer)
	for r := int64(0); r < rowsPer; r++ {
		i := lo + r
		seen := map[int64]bool{i: true}
		var cs []int64
		for _, j := range cols(i) {
			if !seen[j] {
				seen[j] = true
				cs = append(cs, j)
			}
		}
		// Reverse edges: scan all rows' column lists once (test-scale
		// matrices keep this cheap and deterministic).
		for j := int64(0); j < n; j++ {
			if j == i || seen[j] {
				continue
			}
			for _, jj := range cols(j) {
				if jj == i {
					seen[j] = true
					cs = append(cs, j)
					break
				}
			}
		}
		myCols[r] = cs
	}

	b := func(i int64) float64 { return 1 + float64(i%7)/7 }

	// x = 0, r = b, p = r.
	x := make([]float64, rowsPer)
	r := make([]float64, rowsPer)
	for i := int64(0); i < rowsPer; i++ {
		r[i] = b(lo + i)
		t.PutUint64(ps.At(lo+i), math.Float64bits(r[i]))
	}
	localDot := func(a, c []float64) float64 {
		s := 0.0
		for i := range a {
			s += a[i] * c[i]
		}
		return s
	}
	t.Barrier()

	rho := t.AllReduceF64(localDot(r, r))
	rho0 := rho
	q := make([]float64, rowsPer)
	pv := make([]byte, 8)
	for it := 0; it < cgIters; it++ {
		// q = A p : remote gets of p for off-block columns.
		flops := int64(0)
		for rr := int64(0); rr < rowsPer; rr++ {
			i := lo + rr
			t.GetBulk(pv, ps.At(i))
			s := aij(i, i) * math.Float64frombits(byteOrderU64(pv))
			for _, j := range myCols[rr] {
				t.GetBulk(pv, ps.At(j))
				s += aij(i, j) * math.Float64frombits(byteOrderU64(pv))
			}
			q[rr] = s
			flops += int64(len(myCols[rr])) + 1
		}
		t.Compute(sim.Time(flops) * cgFlopCost)

		// alpha = rho / (p · q) over the owned block.
		pDotQ := 0.0
		for rr := int64(0); rr < rowsPer; rr++ {
			t.GetBulk(pv, ps.At(lo+rr))
			pDotQ += math.Float64frombits(byteOrderU64(pv)) * q[rr]
		}
		alpha := rho / t.AllReduceF64(pDotQ)

		// x += alpha p ; r -= alpha q (owned block only).
		for rr := int64(0); rr < rowsPer; rr++ {
			t.GetBulk(pv, ps.At(lo+rr))
			x[rr] += alpha * math.Float64frombits(byteOrderU64(pv))
			r[rr] -= alpha * q[rr]
		}
		rhoNew := t.AllReduceF64(localDot(r, r))
		beta := rhoNew / rho
		rho = rhoNew

		// p = r + beta p (write back the owned block, then sync).
		for rr := int64(0); rr < rowsPer; rr++ {
			t.GetBulk(pv, ps.At(lo+rr))
			v := r[rr] + beta*math.Float64frombits(byteOrderU64(pv))
			t.PutUint64(ps.At(lo+rr), math.Float64bits(v))
		}
		t.Barrier()
	}
	return CGResult{Rho0: rho0, RhoFinal: rho, Verified: rho < rho0/10}
}

func byteOrderU64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// String summarizes the result.
func (r CGResult) String() string {
	return fmt.Sprintf("rho %.4g -> %.4g (verified=%v)", r.Rho0, r.RhoFinal, r.Verified)
}
