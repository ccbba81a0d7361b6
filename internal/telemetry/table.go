package telemetry

import (
	"fmt"
	"io"

	"xlupc/internal/sim"
)

// phaseLabel annotates canonical phase names for human output.
var phaseLabel = map[string]string{
	PhaseCacheLookup:  "address-cache probe",
	PhaseCacheInsert:  "address-cache fill",
	PhaseSend:         "send sw + NIC injection",
	PhaseWire:         "wire latency + arrival queue",
	PhaseCPUWait:      "target CPU busy (AM stalled)",
	PhaseRecv:         "AM handler entry",
	PhaseSVDResolve:   "SVD handle resolution",
	PhaseRegistration: "memory registration (pin)",
	PhaseCopy:         "bounce-buffer copies",
	PhaseRDMASetup:    "RDMA descriptor + injection",
	PhaseDMATarget:    "target DMA engine",
	PhaseRDMARecv:     "initiator NIC completion",
	PhaseRDMALatency:  "RDMA-mode extra latency",
	PhaseOther:        "unattributed (scheduling, waits)",
}

// TargetSidePhases are the phases attributable to the target's CPU or
// AM handler path — the component the paper's §4.6 Paraver analysis
// blamed for Field's stalls on GM. Their combined share is what
// xlupc-top reports as "target-CPU/handler time".
var TargetSidePhases = []string{PhaseCPUWait, PhaseRecv, PhaseSVDResolve, PhaseRegistration}

// TargetShare is the combined share of the target-CPU/handler phases
// in an attribution.
func TargetShare(a Attribution) float64 {
	var sh float64
	for _, name := range TargetSidePhases {
		sh += a.Share(name)
	}
	return sh
}

// WriteQuantiles prints the latency-quantile table: one row per
// (op, proto) group of finished spans — the series of the
// xlupc_op_latency histogram family — with the sample count, mean,
// P50/P95/P99 and max. Quantiles come from the log2 buckets, so they
// are order-of-magnitude figures: enough to tell a 2 µs op population
// from a 20 µs one, which is what the paper's §4.6 question needs.
func (t *Telemetry) WriteQuantiles(w io.Writer) error {
	var groups []series
	if t != nil {
		groups = t.latencies()
	}
	if len(groups) == 0 {
		_, err := fmt.Fprintln(w, "latency quantiles: no samples")
		return err
	}
	if _, err := fmt.Fprintf(w, "  %-28s %8s %10s %10s %10s %10s %10s\n",
		"latency series", "count", "mean", "p50", "p95", "p99", "max"); err != nil {
		return err
	}
	for _, g := range groups {
		d := g.dist
		if _, err := fmt.Fprintf(w, "  %-28s %8d %10v %10v %10v %10v %10v\n",
			g.Labels, d.Count, d.Mean(), d.Quantile(0.50), d.Quantile(0.95), d.Quantile(0.99), d.Max); err != nil {
			return err
		}
	}
	return nil
}

// WriteAttribution prints the phase-attribution table for one op kind:
// per phase, the total virtual time across all finished spans, the
// share of the op's total, and the mean per occurrence.
func (t *Telemetry) WriteAttribution(w io.Writer, op string) error {
	a := t.Attribute(op)
	if a.Spans == 0 {
		_, err := fmt.Fprintf(w, "%s: no finished spans\n", op)
		return err
	}
	if _, err := fmt.Fprintf(w, "%s: %d ops, %v total (%v mean)\n",
		op, a.Spans, a.Total, a.Total/sim.Time(a.Spans)); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "  %-14s %14s %7s %12s  %s\n",
		"phase", "total", "share", "mean", ""); err != nil {
		return err
	}
	for _, ph := range a.Phases {
		mean := ph.Total / sim.Time(ph.Count)
		label := phaseLabel[ph.Name]
		if _, err := fmt.Fprintf(w, "  %-14s %14v %6.1f%% %12v  %s\n",
			ph.Name, ph.Total, 100*float64(ph.Total)/float64(a.Total), mean, label); err != nil {
			return err
		}
	}
	return nil
}
