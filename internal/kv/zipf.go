package kv

// Zipfian key popularity, YCSB-style: the rank distribution follows
// Gray et al., "Quickly Generating Billion-Record Synthetic Databases"
// (SIGMOD '94) — an O(1) rejection-free sampler whose only expensive
// ingredient, the harmonic normalizer ζ(n, θ), is computed once on the
// host and shared immutably across threads. Rank r's probability is
// proportional to 1/r^θ; θ = 0 degenerates to uniform, θ → 1
// approaches the classic Zipf. Ranks are then scrambled through
// sim.SplitMix64 so popular keys scatter across shards instead of
// clustering on low key values (YCSB's "scrambled Zipfian").

import (
	"fmt"
	"math"
	"math/rand"

	"xlupc/internal/sim"
)

// Zipf is an immutable sampler over ranks [1, n] with skew theta in
// [0, 1). Safe to share across threads: Next only reads it.
type Zipf struct {
	n     int64
	theta float64
	alpha float64 // 1/(1-θ)
	zetan float64 // ζ(n, θ)
	eta   float64
	half  float64 // 0.5^θ
}

// NewZipf builds the sampler, paying the O(n) ζ(n, θ) sum once. Bad
// parameters come back as an error — never a panic — so CLIs can
// validate user input at their boundary and report it as a usage
// failure (xlupc-kv additionally range-checks -thetas before any run
// starts, so a bad value fails fast instead of mid-sweep).
func NewZipf(n int64, theta float64) (*Zipf, error) {
	if n <= 0 {
		return nil, fmt.Errorf("kv: zipf population %d must be positive", n)
	}
	if math.IsNaN(theta) || theta < 0 || theta >= 1 {
		return nil, fmt.Errorf("kv: zipf theta %v outside [0,1)", theta)
	}
	z := &Zipf{n: n, theta: theta}
	if theta == 0 {
		return z, nil
	}
	z.zetan = zeta(n, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2, theta)/z.zetan)
	z.half = math.Pow(0.5, theta)
	return z, nil
}

func zeta(n int64, theta float64) float64 {
	var s float64
	for i := int64(1); i <= n; i++ {
		s += 1 / math.Pow(float64(i), theta)
	}
	return s
}

// Next draws a rank in [1, n]; smaller ranks are more popular. One
// rng draw per call, so callers interleave deterministically with
// other uses of the same source.
func (z *Zipf) Next(rng *rand.Rand) int64 {
	u := rng.Float64()
	if z.theta == 0 {
		return 1 + int64(u*float64(z.n))
	}
	uz := u * z.zetan
	if uz < 1 {
		return 1
	}
	if uz < 1+z.half {
		return 2
	}
	r := 1 + int64(float64(z.n)*math.Pow(z.eta*u-z.eta+1, z.alpha))
	if r > z.n {
		r = z.n
	}
	return r
}

// ScrambleKey maps a popularity rank onto the key space [1, numKeys].
// Distinct ranks may collide on one key (YCSB tolerates this); the
// result always avoids the slot sentinels.
func ScrambleKey(rank, numKeys int64) uint64 {
	return 1 + sim.SplitMix64(uint64(rank))%uint64(numKeys)
}
