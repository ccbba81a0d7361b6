// Package telemetry is the runtime's observability layer: per-operation
// spans recording the lifecycle of GET/PUT/atomic/barrier/alloc
// operations phase by phase — cache lookup, protocol selection,
// registration, wire, target-handler, completion — the compute
// intervals between them, and the run's end-of-run table of counts.
// Two exporters serialize a run: Chrome trace-event JSON
// (chrome://tracing / Perfetto) and Prometheus text format.
//
// Metrics are a view, not a store: nothing writes a metric while a run
// is in progress. When the run ends the runtime hands the hub one
// immutable table of (name, labels, kind, value) rows rendered from
// what the run already recorded; the Prometheus export sorts it
// together with the series it computes from the finished spans
// (xlupc_ops_total and the xlupc_op_latency histograms).
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

// Telemetry is one run's telemetry hub: the span store, the compute
// intervals and, once the run has ended, its table. Create with New;
// attach to a run via core.Config.
type Telemetry struct {
	spans    []*Span
	computes []Compute
	table    []Row
}

// Compute is one interval of modeled local computation: what the
// spans do not cover of "where do the threads spend their time"
// (§4.6). It is kept beside them, not as a span, so the exports
// describe runtime operations only.
type Compute struct {
	Thread     int
	Start, End sim.Time
}

// Kind is what a series is.
type Kind uint8

const (
	KindCounter   Kind = iota // a count; never negative
	KindGauge                 // a value that may move either way
	kindHistogram             // a distribution; only spans produce one
)

func (k Kind) String() string {
	switch k {
	case KindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return "counter"
	}
}

// Row is one series of the end-of-run table: a family name, its
// pre-formatted label body (`key="value",...`, "" for none), its kind
// and its value (a counter's is a whole number).
type Row struct {
	Name   string
	Labels string
	Kind   Kind
	Value  float64
}

// New returns an empty, enabled telemetry hub.
func New() *Telemetry {
	return &Telemetry{}
}

// Publish hands the hub the run's end-of-run table, replacing any
// earlier one. The hub keeps rows as given; the exporter orders them.
func (t *Telemetry) Publish(rows []Row) {
	if t != nil {
		t.table = rows
	}
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
	s := &Span{Op: op, Thread: thread, Node: node, Start: at, End: -1}
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
