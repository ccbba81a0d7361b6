// Package telemetry is the runtime's unified observability layer: a
// virtual-time-aware metrics registry (counters, gauges, log-bucketed
// latency histograms over sim.Time) plus per-operation spans recording
// the lifecycle of GET/PUT/atomic/barrier/alloc operations phase by
// phase — cache lookup, protocol selection, registration, wire,
// target-handler, completion. Two exporters serialize a run: Chrome
// trace-event JSON (chrome://tracing / Perfetto) and Prometheus text
// format.
//
// Telemetry costs no virtual time: recording never sleeps, so a run
// with telemetry attached finishes at exactly the same virtual instant
// as one without. A nil *Telemetry is the disabled layer — every
// method is nil-safe and does nothing, so instrumentation sites pay
// one pointer test when the layer is off. All recording happens from
// process bodies or kernel callbacks, which the simulation kernel
// serializes, so no locking is needed and runs are deterministic: two
// identically-seeded runs produce identical snapshots.
package telemetry

import (
	"xlupc/internal/sim"
)

// Telemetry is one run's telemetry hub: a metrics registry plus the
// span store. Create with New; attach to a run via core.Config.
type Telemetry struct {
	reg      Registry
	spans    []*Span
	computes []Compute
}

// Compute is one interval of modeled local computation: what the
// spans do not cover of "where do the threads spend their time"
// (§4.6). It is kept beside them, not as a span, so the exports and
// metrics describe runtime operations only.
type Compute struct {
	Thread     int
	Start, End sim.Time
}

// New returns an empty, enabled telemetry hub.
func New() *Telemetry {
	return &Telemetry{reg: Registry{metrics: make(map[string]*metric)}}
}

// Registry exposes the metrics registry, or nil when disabled.
func (t *Telemetry) Registry() *Registry {
	if t == nil {
		return nil
	}
	return &t.reg
}

// Spans returns every span started so far, in start order.
func (t *Telemetry) Spans() []*Span {
	if t == nil {
		return nil
	}
	return t.spans
}

// StartSpan opens a span for one operation of kind op (e.g. "get") by
// a thread on a node. The returned span is recorded immediately;
// callers mark phases and Finish it. Returns nil when disabled.
func (t *Telemetry) StartSpan(op string, thread, node int, at sim.Time) *Span {
	if t == nil {
		return nil
	}
	s := &Span{tel: t, Op: op, Thread: thread, Node: node, Start: at, End: -1}
	t.spans = append(t.spans, s)
	return s
}

// AddCompute records that thread computed over [start, end].
func (t *Telemetry) AddCompute(thread int, start, end sim.Time) {
	if t == nil {
		return
	}
	t.computes = append(t.computes, Compute{Thread: thread, Start: start, End: end})
}

// Computes returns the compute intervals recorded so far, in end order.
func (t *Telemetry) Computes() []Compute {
	if t == nil {
		return nil
	}
	return t.computes
}

// Add increments the counter name{labels} by n. labels is a
// pre-formatted Prometheus label body (`key="value",...`) or "".
func (t *Telemetry) Add(name, labels string, n int64) {
	if t == nil {
		return
	}
	t.reg.Counter(name, labels).Add(n)
}

// AddLabeled is Add for the series name{key="value"}; the label body
// is built only when the hub is attached.
func (t *Telemetry) AddLabeled(name, key, value string, n int64) {
	if t == nil {
		return
	}
	t.reg.Counter(name, key+`="`+value+`"`).Add(n)
}

// Set sets the gauge name{labels} to v.
func (t *Telemetry) Set(name, labels string, v float64) {
	if t == nil {
		return
	}
	t.reg.Gauge(name, labels).Set(v)
}

// Observe records a virtual-time sample in the histogram name{labels}.
func (t *Telemetry) Observe(name, labels string, v sim.Time) {
	if t == nil {
		return
	}
	t.reg.Histogram(name, labels).Observe(v)
}
