package telemetry

import (
	"sort"

	"xlupc/internal/sim"
)

// Phase is one attributed interval inside a span: where a slice of the
// operation's virtual time went. Phases are recorded by whichever
// layer performed the work — the initiator (cache lookup, send), the
// transport dispatchers (wire, cpu_wait, recv), or the target-side
// handlers (svd_resolve, registration, copy) — and are non-overlapping
// by construction, so their sum is the attributed part of the span.
type Phase struct {
	Name       string
	Start, End sim.Time
}

// Dur is the phase length.
func (ph Phase) Dur() sim.Time { return ph.End - ph.Start }

// Canonical phase names used by the runtime instrumentation. A span's
// unattributed remainder (scheduling gaps, waits not owned by any
// layer) shows up as PhaseOther in attribution tables.
const (
	PhaseCacheLookup   = "cache_lookup"   // remote address cache probe
	PhaseCacheInsert   = "cache_insert"   // cache fill from piggybacked address
	PhaseSend          = "send"           // initiator software send + NIC injection
	PhaseWire          = "wire"           // fabric latency plus arrival-queue residency
	PhaseCPUWait       = "cpu_wait"       // AM handler waiting for a CPU/comm context
	PhaseRecv          = "recv"           // AM header-handler entry overhead
	PhaseSVDResolve    = "svd_resolve"    // handle -> local address translation
	PhaseRegistration  = "registration"   // memory pin (registration) at the target
	PhaseCopy          = "copy"           // bounce-buffer copies (eager protocol)
	PhaseRDMASetup     = "rdma_setup"     // RDMA descriptor build + injection
	PhaseDMATarget     = "dma_target"     // target NIC DMA engine service
	PhaseRDMARecv      = "rdma_recv"      // initiator NIC completion service
	PhaseRDMALatency   = "rdma_latency"   // transport's extra RDMA-mode latency
	PhaseRetry         = "retry"          // reliable-delivery retransmission wait
	PhaseCoalFlush     = "coalesce_flush" // residency in a coalescing buffer
	PhaseEpochRecovery = "epoch_recovery" // stale-epoch cache invalidation after a peer restart
	PhaseOther         = "other"          // unattributed remainder
)

// Span records the lifecycle of one runtime operation: a GET, PUT,
// atomic, barrier, fence, alloc or free. The initiating thread opens it,
// every layer that touches the operation appends phases (the span
// rides along with the simulated message), and the initiator finishes
// it. For asynchronous PUTs the span ends at local completion, the
// paper's initiator-blocking cost; target-side phases of the in-flight
// ACK keep accumulating afterwards and still count in attribution.
type Span struct {
	Op     string // "get", "put", "atomic", "barrier", "fence", "alloc", "free", ...
	Proto  string // protocol taken: "rdma", "eager", "rendezvous", "local", ...
	Thread int    // initiating UPC thread
	Node   int    // initiating node
	Bytes  int    // payload size, when meaningful
	Start  sim.Time
	End    sim.Time // -1 while open
	Phases []Phase

	// Split marks a span opened by split-phase issue (NbGet,
	// NbAccumulate): its thread runs on while it is open, until SyncAll
	// (or a fence or barrier) retires it, so it is the operation's
	// latency, not time the thread waited.
	Split bool
}

// SetProto records which protocol the operation took. The last call
// wins — a NACKed RDMA fast path that falls back re-labels itself.
func (s *Span) SetProto(proto string) {
	if s != nil {
		s.Proto = proto
	}
}

// MarkSplit records that the operation was issued split-phase.
func (s *Span) MarkSplit() {
	if s != nil {
		s.Split = true
	}
}

// SetBytes records the operation's payload size.
func (s *Span) SetBytes(n int) {
	if s != nil {
		s.Bytes = n
	}
}

// Phase appends an attributed interval. Empty and inverted intervals
// are dropped, so callers can bracket conditional work unconditionally.
func (s *Span) Phase(name string, start, end sim.Time) {
	if s == nil || end <= start {
		return
	}
	s.Phases = append(s.Phases, Phase{Name: name, Start: start, End: end})
}

// Dur is the span length (through now for open spans is meaningless;
// callers use it after Finish).
func (s *Span) Dur() sim.Time {
	if s == nil || s.End < s.Start {
		return 0
	}
	return s.End - s.Start
}

// Finish closes the span at the given time.
func (s *Span) Finish(at sim.Time) {
	if s != nil {
		s.End = at
	}
}

// PhaseStat is one row of an attribution table.
type PhaseStat struct {
	Name  string
	Total sim.Time
	Count int64
}

// Attribution is the phase breakdown of every finished span of one
// operation kind: the answer to "where does this op's time actually
// go". Phases are sorted by descending total; the unattributed
// remainder appears as PhaseOther.
type Attribution struct {
	Op     string
	Spans  int64    // finished spans aggregated
	Total  sim.Time // sum of span durations
	Phases []PhaseStat
}

// Dominant returns the largest phase, or a zero PhaseStat when the
// table is empty.
func (a Attribution) Dominant() PhaseStat {
	if len(a.Phases) == 0 {
		return PhaseStat{}
	}
	return a.Phases[0]
}

// Share is the fraction of Total attributed to the named phase.
func (a Attribution) Share(name string) float64 {
	if a.Total <= 0 {
		return 0
	}
	for _, ph := range a.Phases {
		if ph.Name == name {
			return float64(ph.Total) / float64(a.Total)
		}
	}
	return 0
}

// Attribute aggregates the finished spans of one op kind (all kinds
// when op is ""). Only spans with a recorded End participate.
func (t *Telemetry) Attribute(op string) Attribution {
	a := Attribution{Op: op}
	if t == nil {
		return a
	}
	totals := make(map[string]*PhaseStat)
	var order []string
	add := func(name string, d sim.Time) {
		st, ok := totals[name]
		if !ok {
			st = &PhaseStat{Name: name}
			totals[name] = st
			order = append(order, name)
		}
		st.Total += d
		st.Count++
	}
	for _, s := range t.spans {
		if s.End < s.Start || (op != "" && s.Op != op) {
			continue
		}
		a.Spans++
		a.Total += s.Dur()
		var attributed sim.Time
		for _, ph := range s.Phases {
			add(ph.Name, ph.Dur())
			attributed += ph.Dur()
		}
		if rest := s.Dur() - attributed; rest > 0 {
			add(PhaseOther, rest)
		}
	}
	a.Phases = make([]PhaseStat, 0, len(order))
	for _, name := range order {
		a.Phases = append(a.Phases, *totals[name])
	}
	sort.SliceStable(a.Phases, func(i, j int) bool {
		if a.Phases[i].Total != a.Phases[j].Total {
			return a.Phases[i].Total > a.Phases[j].Total
		}
		return a.Phases[i].Name < a.Phases[j].Name
	})
	return a
}
