package telemetry

import (
	"math/bits"

	"xlupc/internal/sim"
)

// histBuckets is the number of log2 buckets: bucket 0 holds
// non-positive samples, bucket i (i>=1) holds [2^(i-1), 2^i) ps.
// 64 buckets cover the full int64 picosecond range.
const histBuckets = 64

// Dist is a log2-bucketed distribution of virtual-time samples: what
// the exporter computes from the finished spans of one (op, proto)
// group at export time.
type Dist struct {
	Count    int64
	Sum      sim.Time
	Min, Max sim.Time // valid when Count > 0
	Buckets  [histBuckets]int64
}

// bucketOf maps a sample to its bucket index: 0 for v <= 0, else
// bits.Len64(v) so bucket i covers [2^(i-1), 2^i).
func bucketOf(v sim.Time) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// bucketUpper is the inclusive upper bound of bucket i in picoseconds.
func bucketUpper(i int) sim.Time {
	if i <= 0 {
		return 0
	}
	if i >= 63 {
		return sim.Time(int64(^uint64(0) >> 1)) // max int64
	}
	return sim.Time(int64(1)<<uint(i) - 1)
}

// fold adds one sample to the distribution.
func (d *Dist) fold(v sim.Time) {
	d.Buckets[min(bucketOf(v), histBuckets-1)]++
	if d.Count == 0 || v < d.Min {
		d.Min = v
	}
	if d.Count == 0 || v > d.Max {
		d.Max = v
	}
	d.Count++
	d.Sum += v
}

// Mean returns the mean sample, or 0 when empty.
func (d *Dist) Mean() sim.Time {
	if d.Count == 0 {
		return 0
	}
	return d.Sum / sim.Time(d.Count)
}

// Quantile estimates the q-quantile (0 <= q <= 1) as the upper bound
// of the bucket holding the q-th sample, clamped to the observed
// [min, max]. Bucket resolution is a factor of two, which is enough to
// tell a 2 µs phase from a 20 µs one.
func (d *Dist) Quantile(q float64) sim.Time {
	if d.Count == 0 {
		return 0
	}
	if q <= 0 {
		return d.Min
	}
	if q >= 1 {
		return d.Max
	}
	target := max(int64(q*float64(d.Count)), 1)
	var cum int64
	for i, n := range d.Buckets {
		cum += n
		if cum >= target {
			return min(max(bucketUpper(i), d.Min), d.Max)
		}
	}
	return d.Max
}
