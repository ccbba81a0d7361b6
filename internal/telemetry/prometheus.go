package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"xlupc/internal/sim"
)

// secs renders a virtual time as Prometheus seconds.
func secs(t sim.Time) string {
	return strconv.FormatFloat(t.Secs(), 'g', -1, 64)
}

// series is one exported series: a row of the table, or one computed
// from the spans (a histogram carries its distribution).
type series struct {
	Row
	dist *Dist
}

// latencies returns the xlupc_op_latency histograms: the finished spans
// grouped by operation and protocol, in label order, each with the
// distribution of its durations — the rows of the quantile table too.
func (t *Telemetry) latencies() []series {
	groups := map[string]*Dist{}
	var out []series
	for _, s := range t.spans {
		if s.End < s.Start {
			continue // still open
		}
		labels := `op="` + s.Op + `"`
		if s.Proto != "" {
			labels += `,proto="` + s.Proto + `"`
		}
		d := groups[labels]
		if d == nil {
			d = new(Dist)
			groups[labels] = d
			out = append(out, series{Row{Name: "xlupc_op_latency", Labels: labels, Kind: kindHistogram}, d})
		}
		d.fold(s.Dur())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Labels < out[j].Labels })
	return out
}

// view returns every exported series ordered by family name, then
// label body. It rejects a family emitted as two kinds (Prometheus
// forbids it), a series emitted twice, and a negative counter.
func (t *Telemetry) view() ([]series, error) {
	out := make([]series, 0, len(t.table))
	for _, r := range t.table {
		out = append(out, series{Row: r})
	}
	for _, l := range t.latencies() {
		out = append(out, l, series{Row: Row{Name: "xlupc_ops_total", Labels: l.Labels, Kind: KindCounter, Value: float64(l.dist.Count)}})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Labels < out[j].Labels
	})
	for i, s := range out {
		if s.Kind == KindCounter && s.Value < 0 {
			return nil, fmt.Errorf("telemetry: counter %s is negative", seriesName(s.Name, s.Labels))
		}
		if i == 0 || out[i-1].Name != s.Name {
			continue
		}
		if p := out[i-1]; p.Kind != s.Kind {
			return nil, fmt.Errorf("telemetry: metric %s emitted as both %v and %v", s.Name, p.Kind, s.Kind)
		} else if p.Labels == s.Labels {
			return nil, fmt.Errorf("telemetry: series %s emitted twice", seriesName(s.Name, s.Labels))
		}
	}
	return out, nil
}

// WritePrometheus serializes the run's metrics in the Prometheus text
// exposition format. Virtual times are exported in (virtual) seconds.
// Families are emitted once each in sorted order, so the output never
// contains duplicate metric names; series within a family are sorted
// by label set, so the output is deterministic.
func (t *Telemetry) WritePrometheus(w io.Writer) error {
	if t == nil {
		return nil
	}
	all, err := t.view()
	if err != nil {
		return err
	}
	for i, s := range all {
		if i == 0 || all[i-1].Name != s.Name {
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", s.Name, s.Kind); err != nil {
				return err
			}
		}
		if err := writeSeries(w, s); err != nil {
			return err
		}
	}
	return nil
}

func seriesName(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

func withLE(labels, le string) string {
	if labels == "" {
		return `le="` + le + `"`
	}
	return labels + `,le="` + le + `"`
}

func writeSeries(w io.Writer, s series) error {
	switch s.Kind {
	case KindCounter:
		_, err := fmt.Fprintf(w, "%s %s\n", seriesName(s.Name, s.Labels), strconv.FormatFloat(s.Value, 'f', -1, 64))
		return err
	case KindGauge:
		_, err := fmt.Fprintf(w, "%s %s\n", seriesName(s.Name, s.Labels), strconv.FormatFloat(s.Value, 'g', -1, 64))
		return err
	}
	// Histogram: cumulative buckets up to the highest occupied one, then
	// +Inf, sum and count.
	d := s.dist
	top := -1
	for i, n := range d.Buckets {
		if n > 0 {
			top = i
		}
	}
	var cum int64
	for i := 0; i <= top; i++ {
		cum += d.Buckets[i]
		if _, err := fmt.Fprintf(w, "%s %d\n",
			seriesName(s.Name+"_bucket", withLE(s.Labels, secs(bucketUpper(i)))), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s %d\n",
		seriesName(s.Name+"_bucket", withLE(s.Labels, "+Inf")), d.Count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s %s\n", seriesName(s.Name+"_sum", s.Labels), secs(d.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %d\n", seriesName(s.Name+"_count", s.Labels), d.Count)
	return err
}

// Snapshot returns the Prometheus rendering as a string — the
// deterministic fingerprint of a run's metrics, used by tests to
// assert that identically-seeded runs produce identical telemetry.
func (t *Telemetry) Snapshot() string {
	if t == nil {
		return ""
	}
	var sb strings.Builder
	if err := t.WritePrometheus(&sb); err != nil {
		// strings.Builder never returns a write error, so any error here
		// is a serialization bug. Silently returning a truncated snapshot
		// would make two differing runs compare equal; fail loudly.
		panic(fmt.Sprintf("telemetry: snapshot failed: %v", err))
	}
	return sb.String()
}
