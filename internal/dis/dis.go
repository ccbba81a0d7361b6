// Package dis reimplements the four DIS Stressmark Suite benchmarks
// the paper ports to UPC (§4.4): Pointer, Update, Neighborhood and
// Field. The paper chose them over NAS because they recreate the
// access patterns of data-intensive applications; the patterns — not
// absolute problem sizes — are what exercise the remote address cache,
// so the default sizes here are scaled down to keep simulations fast
// (simulated time is unaffected by how long the simulator runs).
//
// Every stressmark returns a checksum that must be identical with the
// cache on and off: the optimization may only change timing.
package dis

import (
	"fmt"

	"xlupc/internal/core"
	"xlupc/internal/sim"
)

// Params sizes the stressmarks.
type Params struct {
	// Pointer: each thread follows PointerHops pointers through a
	// shared array of PointerLen words.
	PointerLen  int64
	PointerHops int

	// Update: thread 0 follows UpdateHops pointers, reading
	// UpdateReads locations and writing one per hop, while the other
	// threads idle in a barrier. UpdateHopCompute is the local work
	// between hops.
	UpdateLen        int64
	UpdateHops       int
	UpdateReads      int
	UpdateHopCompute sim.Time

	// Neighborhood: a pixel matrix of NeighborhoodRowsPer rows per
	// thread by NeighborhoodCols columns, block-distributed row major;
	// pixel pairs at stencil distance Dist are read for
	// NeighborhoodSamples sample pixels per thread. A fixed band
	// height keeps the remote fraction of accesses constant as the
	// machine grows (the paper's stencil makes ~3/16 of accesses
	// potentially remote at every scale).
	NeighborhoodRowsPer int64
	NeighborhoodCols    int64
	NeighborhoodDist    int64
	NeighborhoodSamples int

	// Field: a string array of FieldBlock bytes per thread searched
	// for FieldTokens successive tokens of FieldTokenLen bytes;
	// matches update the delimiter in place. Scanning is modeled as
	// local computation at FieldScanPerByte, split into FieldSegments
	// segments with a remote statistics sample of FieldSampleBytes
	// read from the successor's block between segments — the
	// data-intensive interleaving whose remote accesses the paper's
	// Paraver traces showed stalling on busy target CPUs.
	FieldBlock       int64
	FieldTokens      int
	FieldTokenLen    int64
	FieldScanPerByte sim.Time
	FieldSegments    int
	FieldSampleBytes int

	// HopCompute models the per-access local work of the pointer
	// chasers.
	HopCompute sim.Time

	// Salt perturbs the deterministic workload generators, giving
	// independent replications for confidence intervals while staying
	// reproducible. The default (0) matches the figures.
	Salt uint64
}

// Default returns simulation-friendly sizes scaled to the thread
// count: enough work per thread for stable statistics, small enough to
// sweep hundreds of configurations.
func Default(threads int) Params {
	return Params{
		PointerLen:  int64(threads) * 256,
		PointerHops: 96,

		UpdateLen:  int64(threads) * 256,
		UpdateHops: 192 + threads*4, // grows with the machine so the
		// one-time registration costs amortize the way the paper's
		// convergence-length runs did
		UpdateReads:      3,
		UpdateHopCompute: 8 * sim.Us,

		NeighborhoodRowsPer: 53, // with Dist 10: ~3/16 of pairs remote
		NeighborhoodCols:    256,
		NeighborhoodDist:    10,
		NeighborhoodSamples: 160,

		FieldBlock:       64 << 10,
		FieldTokens:      6,
		FieldTokenLen:    8,
		FieldScanPerByte: 2 * sim.Ns,
		FieldSegments:    3,
		FieldSampleBytes: 4096,

		HopCompute: 300 * sim.Ns,
	}
}

// Func is a stressmark body: run under core.Runtime.Run on every
// thread, returning the thread's checksum contribution.
type Func func(t *core.Thread, p Params) uint64

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

// Checksum combines per-thread checksum contributions (slot i holding
// thread i's return value) into the run's self-verification value.
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

// hash derives the workload hash for a parameter set (splitmix64 over
// the salted input). Pointer receiver: it runs once per byte of Field
// and Neighborhood data, and Params is a 200-byte struct.
func (p *Params) hash(x uint64) uint64 { return splitmix64(x ^ p.Salt*0x9E3779B9) }

// splitmix64 provides a deterministic, thread-count-independent hash
// used to initialize shared data so checksums are comparable across
// configurations with the same array sizes.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
