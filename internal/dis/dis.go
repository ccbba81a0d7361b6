// Package dis reimplements the four DIS Stressmark Suite benchmarks
// the paper ports to UPC (§4.4): Pointer, Update, Neighborhood and
// Field. The paper chose them over NAS because they recreate the
// access patterns of data-intensive applications; the patterns — not
// absolute problem sizes — are what exercise the remote address cache,
// so the default sizes here are scaled down to keep simulations fast
// (simulated time is unaffected by how long the simulator runs). The
// sizes are constants of the package; Params carries only the salt
// that replicates a run.
//
// Every stressmark produces a checksum that must be identical with the
// cache on and off: the optimization may only change timing.
package dis

import (
	"fmt"

	"xlupc/internal/core"
	"xlupc/internal/sim"
)

// The stressmarks' sizes: simulation-friendly, scaled to the thread
// count where they scale — enough work per thread for stable
// statistics, small enough to sweep hundreds of configurations.
const (
	// Pointer: each thread follows pointerHops pointers through a
	// shared array of pointerPerThread words per thread.
	pointerPerThread = 256
	pointerHops      = 96

	// Update: thread 0 follows updateHopsBase + updateHopsPerThread ×
	// THREADS pointers through a shared array of updatePerThread words
	// per thread, reading updateReads locations and writing one per
	// hop, while the other threads idle in a barrier. The hop count
	// grows with the machine so the one-time registration costs
	// amortize the way the paper's convergence-length runs did.
	// updateHopCompute is the local work between hops.
	updatePerThread     = 256
	updateHopsBase      = 192
	updateHopsPerThread = 4
	updateReads         = 3
	updateHopCompute    = 8 * sim.Us

	// Neighborhood: a pixel matrix of neighborhoodRowsPer rows per
	// thread by neighborhoodCols columns, block-distributed row major;
	// pixel pairs at stencil distance neighborhoodDist are read for
	// neighborhoodSamples sample pixels per thread. A fixed band
	// height keeps the remote fraction of accesses constant as the
	// machine grows (the paper's stencil makes ~3/16 of accesses
	// potentially remote at every scale: 53 rows with distance 10).
	neighborhoodRowsPer = 53
	neighborhoodCols    = 256
	neighborhoodDist    = 10
	neighborhoodSamples = 160

	// Field: a string array of fieldBlock bytes per thread searched
	// for fieldTokens successive tokens of fieldTokenLen bytes;
	// matches update the delimiter in place. Scanning is modeled as
	// local computation at fieldScanPerByte, split into fieldSegments
	// segments with a remote statistics sample of fieldSampleBytes
	// read from the successor's block between segments — the
	// data-intensive interleaving whose remote accesses the paper's
	// Paraver traces showed stalling on busy target CPUs.
	fieldBlock       = 64 << 10
	fieldTokens      = 6
	fieldTokenLen    = 8
	fieldScanPerByte = 2 * sim.Ns
	fieldSegments    = 3
	fieldSampleBytes = 4096

	// hopCompute models the per-access local work of the pointer
	// chasers.
	hopCompute = 300 * sim.Ns
)

// Params is what varies between runs of one stressmark at one size.
type Params struct {
	// Salt perturbs the deterministic workload generators, giving
	// independent replications for confidence intervals while staying
	// reproducible. The default (0) matches the figures.
	Salt uint64
}

// Func is a stressmark: started on a thread under core.Runtime.RunCont,
// it runs the thread's program as a continuation state machine — its
// state in one record, its steps bound once, so an access builds no
// closure — and passes done the thread's checksum contribution.
type Func func(t *core.Thread, p Params, done func(check uint64))

// Suite enumerates the implemented stressmarks in the paper's order.
func Suite() []struct {
	Name string
	Fn   Func
} {
	return []struct {
		Name string
		Fn   Func
	}{
		{"pointer", Pointer},
		{"update", Update},
		{"neighborhood", Neighborhood},
		{"field", Field},
	}
}

// ByName resolves a stressmark.
func ByName(name string) (Func, error) {
	for _, s := range Suite() {
		if s.Name == name {
			return s.Fn, nil
		}
	}
	return nil, fmt.Errorf("dis: unknown stressmark %q", name)
}

// Run runs mark on every thread of rt under Runtime.RunCont and
// returns the run's statistics and its checksum.
func Run(rt *core.Runtime, mark Func, p Params) (core.RunStats, uint64, error) {
	checks := make([]uint64, rt.Config().Threads)
	st, err := rt.RunCont(func(t *core.Thread, done func()) {
		mark(t, p, func(c uint64) {
			checks[t.ID()] = c
			done()
		})
	})
	return st, Checksum(checks), err
}

// Checksum combines per-thread checksum contributions (slot i holding
// thread i's) into the run's self-verification value.
// The combination is position-sensitive but timing-independent: two
// runs of the same workload must agree regardless of caching, transport
// or injected faults.
func Checksum(checks []uint64) uint64 {
	var sum uint64
	for i, c := range checks {
		sum ^= c + uint64(i)*0x9E37
	}
	return sum
}

// mark is the state every stressmark's thread starts with: the thread,
// the parameters, the shared array, the checksum contribution it
// accumulates, and where that goes when the program ends.
type mark struct {
	t      *core.Thread
	p      Params
	a      *core.SharedArray
	sum    uint64
	done   func(uint64)
	finish func() // bound end
}

func (m *mark) init(t *core.Thread, p Params, done func(uint64)) {
	m.t, m.p, m.done = t, p, done
	m.finish = m.end
}

func (m *mark) end() { m.done(m.sum) }

// hash derives the workload hash for a parameter set (sim.SplitMix64 over
// the salted input).
func (p Params) hash(x uint64) uint64 { return sim.SplitMix64(x ^ p.mix()) }

// mix is what hash folds into its input: a loop hashing many inputs
// reads it once.
func (p Params) mix() uint64 { return p.Salt * 0x9E3779B9 }
