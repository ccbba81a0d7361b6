package telemetry

import (
	"fmt"
	"math/bits"
	"sort"

	"xlupc/internal/sim"
)

// metricKind tags what a registry entry is, so one name can never be
// registered as two different kinds (Prometheus forbids duplicate
// metric families).
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return "counter"
	}
}

// histBuckets is the number of log2 buckets: bucket 0 holds
// non-positive samples, bucket i (i>=1) holds [2^(i-1), 2^i) ps.
// 64 buckets cover the full int64 picosecond range.
const histBuckets = 64

// metric is one registry entry: a (family name, label set) series.
type metric struct {
	name   string // family name
	labels string // pre-formatted label body, "" for none
	kind   metricKind

	count int64    // counter value / histogram sample count
	gauge float64  // gauge value
	sum   sim.Time // histogram sum
	min   sim.Time // histogram minimum (valid when count > 0)
	max   sim.Time // histogram maximum
	bkt   []int64  // histogram buckets (lazily allocated)
}

// Counter is a monotonically increasing count.
type Counter struct{ m *metric }

// Add increases the counter by n (negative n panics).
func (c *Counter) Add(n int64) {
	if c == nil || c.m == nil {
		return
	}
	if n < 0 {
		panic(fmt.Sprintf("telemetry: counter %s decreased", c.m.name))
	}
	c.m.count += n
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil || c.m == nil {
		return 0
	}
	return c.m.count
}

// Gauge is a value that can go up and down.
type Gauge struct{ m *metric }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil || g.m == nil {
		return
	}
	g.m.gauge = v
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil || g.m == nil {
		return 0
	}
	return g.m.gauge
}

// Histogram is a log2-bucketed distribution of virtual-time samples.
type Histogram struct{ m *metric }

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

// Observe records one virtual-time sample.
func (h *Histogram) Observe(v sim.Time) {
	if h == nil || h.m == nil {
		return
	}
	m := h.m
	if m.bkt == nil {
		m.bkt = make([]int64, histBuckets)
	}
	i := bucketOf(v)
	if i >= histBuckets {
		i = histBuckets - 1
	}
	m.bkt[i]++
	if m.count == 0 || v < m.min {
		m.min = v
	}
	if m.count == 0 || v > m.max {
		m.max = v
	}
	m.count++
	m.sum += v
}

// Count returns the number of samples.
func (h *Histogram) Count() int64 {
	if h == nil || h.m == nil {
		return 0
	}
	return h.m.count
}

// Min and Max return the sample extremes (0 when empty).
func (h *Histogram) Min() sim.Time {
	if h == nil || h.m == nil || h.m.count == 0 {
		return 0
	}
	return h.m.min
}

func (h *Histogram) Max() sim.Time {
	if h == nil || h.m == nil || h.m.count == 0 {
		return 0
	}
	return h.m.max
}

// Mean returns the mean sample, or 0 when empty.
func (h *Histogram) Mean() sim.Time {
	if h == nil || h.m == nil || h.m.count == 0 {
		return 0
	}
	return h.m.sum / sim.Time(h.m.count)
}

// Quantile estimates the q-quantile (0 <= q <= 1) as the upper bound
// of the bucket holding the q-th sample, clamped to the observed
// [min, max]. Bucket resolution is a factor of two, which is enough to
// tell a 2 µs phase from a 20 µs one.
func (h *Histogram) Quantile(q float64) sim.Time {
	if h == nil || h.m == nil || h.m.count == 0 {
		return 0
	}
	m := h.m
	if q <= 0 {
		return m.min
	}
	if q >= 1 {
		return m.max
	}
	target := int64(q * float64(m.count))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, n := range m.bkt {
		cum += n
		if cum >= target {
			v := bucketUpper(i)
			if v < m.min {
				v = m.min
			}
			if v > m.max {
				v = m.max
			}
			return v
		}
	}
	return m.max
}

// P50, P95 and P99 are the common quantile shortcuts.
func (h *Histogram) P50() sim.Time { return h.Quantile(0.50) }
func (h *Histogram) P95() sim.Time { return h.Quantile(0.95) }
func (h *Histogram) P99() sim.Time { return h.Quantile(0.99) }

// Registry holds one run's metrics, keyed by (family name, labels).
// The zero value is unusable; obtain one through Telemetry.
type Registry struct {
	metrics map[string]*metric
}

func (r *Registry) lookup(name, labels string, kind metricKind) *metric {
	if r == nil || r.metrics == nil {
		return nil
	}
	key := name + "{" + labels + "}"
	m, ok := r.metrics[key]
	if !ok {
		m = &metric{name: name, labels: labels, kind: kind}
		r.metrics[key] = m
	} else if m.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %s registered as both %v and %v", name, m.kind, kind))
	}
	return m
}

// Counter returns (creating if needed) the counter name{labels}.
func (r *Registry) Counter(name, labels string) *Counter {
	return &Counter{m: r.lookup(name, labels, kindCounter)}
}

// Gauge returns (creating if needed) the gauge name{labels}.
func (r *Registry) Gauge(name, labels string) *Gauge {
	return &Gauge{m: r.lookup(name, labels, kindGauge)}
}

// Histogram returns (creating if needed) the histogram name{labels}.
func (r *Registry) Histogram(name, labels string) *Histogram {
	return &Histogram{m: r.lookup(name, labels, kindHistogram)}
}

// HistogramSeries is one (label set, histogram) pair of a family —
// what Histograms returns for table rendering.
type HistogramSeries struct {
	Labels string
	Hist   *Histogram
}

// Histograms returns every histogram series of the named family in
// deterministic (label-sorted) order. Non-histogram entries and other
// families are skipped.
func (r *Registry) Histograms(name string) []HistogramSeries {
	var out []HistogramSeries
	for _, m := range r.sorted() {
		if m.name == name && m.kind == kindHistogram {
			out = append(out, HistogramSeries{Labels: m.labels, Hist: &Histogram{m: m}})
		}
	}
	return out
}

// sorted returns every metric ordered by family name then labels —
// the deterministic export order.
func (r *Registry) sorted() []*metric {
	if r == nil {
		return nil
	}
	out := make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return out[i].labels < out[j].labels
	})
	return out
}
