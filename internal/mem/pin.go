package mem

import (
	"fmt"

	"xlupc/internal/flight"
	"xlupc/internal/sim"
)

// PageSize is the registration granularity of the simulated NICs.
const PageSize = 4096

// CostModel carries the registration cost parameters of a transport:
// pinning is expensive, deregistration more so (the GM observation the
// paper leans on).
type CostModel struct {
	RegBase      sim.Time // fixed cost per registration call
	RegPerPage   sim.Time // per-page cost
	DeregBase    sim.Time
	DeregPerPage sim.Time
	// MaxPerObject caps a single registration handle (32 MB for LAPI).
	// Zero means unlimited.
	MaxPerObject int
	// MaxTotal caps total pinned memory per node (1 GB of DMAable
	// memory for GM). Zero means unlimited.
	MaxTotal int
}

func pages(size int) int { return (size + PageSize - 1) / PageSize }

// RegCost is the virtual-time cost of registering size bytes.
func (c CostModel) RegCost(size int) sim.Time {
	return c.RegBase + sim.Time(pages(size))*c.RegPerPage
}

// DeregCost is the virtual-time cost of deregistering size bytes.
func (c CostModel) DeregCost(size int) sim.Time {
	return c.DeregBase + sim.Time(pages(size))*c.DeregPerPage
}

// PinEntry describes one registered (pinned) region: the paper's
// pinned address table is "tagged by local virtual addresses and
// contains physical addresses in the format needed by RDMA operations".
// The simulated RDMA address is just the virtual address plus a node
// tag, but the entry is what gates RDMA access.
type PinEntry struct {
	Base    Addr
	Size    int
	Tag     uint64 // owner tag (the shared object's handle key)
	LastUse sim.Time
	seq     int64 // insertion order, for deterministic LRU ties

	// Intrusive links of the evictor's recency/insertion list.
	prev, next *PinEntry
	ref        bool // CLOCK reference bit
	protected  bool // cost-aware ghost-list protection
}

// ErrPinLimit is returned when a pin request cannot be satisfied
// within the configured limits.
type ErrPinLimit struct {
	Base   Addr
	Size   int
	Reason string
	Limit  int
}

func (e *ErrPinLimit) Error() string {
	return fmt.Sprintf("mem: cannot pin %d bytes at %#x: %s (limit %d)", e.Size, e.Base, e.Reason, e.Limit)
}

// PinPolicy decides what happens when a pin request exceeds MaxTotal.
type PinPolicy int

const (
	// PinAll is the paper's greedy "pin everything" strategy (§3.1):
	// whole objects are pinned on first access and stay pinned until
	// freed. Exceeding the total limit is an error the caller must
	// handle (falling back to the non-RDMA path).
	PinAll PinPolicy = iota
	// PinLimited is the "more elaborated technique" of [10]: when the
	// total limit would be exceeded, pinned regions chosen by the
	// table's Evictor (LRU by default) are deregistered — at
	// deregistration cost — to make room.
	PinLimited
)

func (p PinPolicy) String() string {
	if p == PinLimited {
		return "pin-limited"
	}
	return "pin-all"
}

// PinTable is a node's pinned address table.
type PinTable struct {
	node    int
	model   CostModel
	policy  PinPolicy
	entries map[Addr]*PinEntry
	total   int // pinned bytes: what the NIC holds registered
	seq     int64
	ev      Evictor
	fr      *flight.Recorder // the machine's; nil for a table built alone

	PinStats
}

// PinStats is what a pin table counts beside its flight records (the
// pin_evict kind). The evictor extras (GhostHits, Repins) stay zero
// under the default LRU evictor.
type PinStats struct {
	Pins      int64    // registrations performed
	Unpins    int64    // explicit deregistrations
	GhostHits int64    // cost-aware policy: evicted bases that came back
	Repins    int64    // size-mismatched re-pins (dereg + fresh register)
	MaxLive   int      // high-water mark of simultaneously pinned entries
	RegTime   sim.Time // virtual time charged for registrations
	DeregTime sim.Time // virtual time charged for deregistrations (incl. evictions)
}

// Add accumulates another table's counts into s. MaxLive keeps the
// larger mark: summed over nodes it is the fullest table's peak.
func (s *PinStats) Add(o PinStats) {
	s.Pins += o.Pins
	s.Unpins += o.Unpins
	s.GhostHits += o.GhostHits
	s.Repins += o.Repins
	s.MaxLive = max(s.MaxLive, o.MaxLive)
	s.RegTime += o.RegTime
	s.DeregTime += o.DeregTime
}

// NewPinTable returns an empty pinned address table for node.
func NewPinTable(node int, model CostModel, policy PinPolicy) *PinTable {
	return &PinTable{
		node: node, model: model, policy: policy,
		entries: make(map[Addr]*PinEntry),
		ev:      NewLRUEvictor(),
	}
}

// Policy returns the table's pinning policy.
func (t *PinTable) Policy() PinPolicy { return t.policy }

// SetEvictor replaces the victim policy. It must be called before any
// region is pinned — swapping policies mid-run would lose the evictor's
// view of the live set.
func (t *PinTable) SetEvictor(ev Evictor) {
	if len(t.entries) > 0 {
		panic("mem: SetEvictor on a non-empty pin table")
	}
	t.ev = ev
}

// SetFlightRecorder attaches the machine's flight recorder: evictions
// are recorded, and counted, there alone.
func (t *PinTable) SetFlightRecorder(fr *flight.Recorder) { t.fr = fr }

// record flight-records one event of entry e on the table's node. A
// table built without a machine (the benchmark's pin-table drivers)
// neither records nor counts it.
func (t *PinTable) record(now sim.Time, k flight.Kind, e *PinEntry) {
	if t.fr == nil {
		return
	}
	t.fr.Record(t.node, flight.Event{
		T: now, Kind: k, Class: flight.ClassDMA,
		Src: int32(t.node), Dst: -1, Seq: e.Tag, Arg: int64(e.Size),
	})
}

// TotalPinned reports the total registered bytes.
func (t *PinTable) TotalPinned() int { return t.total }

// Live reports the number of pinned regions.
func (t *PinTable) Live() int { return len(t.entries) }

// Touch records an RDMA use of the region at base (for recency) at time
// now. Touching an unpinned region is a protocol bug and panics: it
// means an RDMA operation targeted unregistered memory.
func (t *PinTable) Touch(base Addr, now sim.Time) {
	if !t.TouchOK(base, now) {
		panic(fmt.Sprintf("mem: node %d: RDMA access to unpinned region %#x", t.node, base))
	}
}

// TouchOK is Touch for transports that tolerate stale registrations
// (the limited-pinning policy may have deregistered the region): it
// reports whether the region is still pinned instead of panicking.
func (t *PinTable) TouchOK(base Addr, now sim.Time) bool {
	e, ok := t.entries[base]
	if !ok {
		return false
	}
	e.LastUse = now
	t.ev.Touch(e)
	return true
}

// Pin registers the region [base, base+size) tagged with the owning
// object's handle key at time now, and returns the virtual-time cost
// the caller must charge (registration plus any deregistrations).
// Pinning an already-pinned region at its current size is free and
// costless; a size mismatch deregisters the stale handle and registers
// the region afresh (both costs charged).
//
// Per-object limits fail regardless of policy (the caller falls back
// to non-RDMA transfer, as XLUPC does for over-large LAPI handles).
// Total limits fail under PinAll and trigger evictor-chosen
// deregistration under PinLimited.
func (t *PinTable) Pin(base Addr, size int, tag uint64, now sim.Time) (sim.Time, error) {
	cost := sim.Time(0)
	if e, ok := t.entries[base]; ok {
		if e.Size == size {
			e.LastUse = now
			t.ev.Touch(e)
			return 0, nil
		}
		// Size mismatch: the NIC handle covers the wrong extent. The
		// old registration is torn down and the fall-through below
		// registers the region at its real size.
		t.ev.Remove(e)
		delete(t.entries, base)
		t.total -= e.Size
		dc := t.model.DeregCost(e.Size)
		cost += dc
		t.DeregTime += dc
		t.Repins++
	}
	if t.model.MaxPerObject > 0 && size > t.model.MaxPerObject {
		return cost, &ErrPinLimit{Base: base, Size: size, Reason: "exceeds per-object registration limit", Limit: t.model.MaxPerObject}
	}
	if t.model.MaxTotal > 0 && t.total+size > t.model.MaxTotal {
		if t.policy == PinAll {
			return cost, &ErrPinLimit{Base: base, Size: size, Reason: "exceeds total DMAable memory", Limit: t.model.MaxTotal}
		}
		for t.total+size > t.model.MaxTotal {
			victim := t.ev.Victim(now)
			if victim == nil {
				// Either the table is empty or the evictor is refusing
				// to sacrifice a protected working set; the caller
				// degrades this access to the AM path. The
				// deregistrations already performed above are real work
				// the NIC did — their time must still be charged to the
				// caller alongside the error.
				reason := "exceeds total DMAable memory even when empty"
				if len(t.entries) > 0 {
					reason = "exceeds total DMAable memory; resident registrations are protected"
				}
				return cost, &ErrPinLimit{Base: base, Size: size, Reason: reason, Limit: t.model.MaxTotal}
			}
			t.ev.Remove(victim)
			delete(t.entries, victim.Base)
			t.total -= victim.Size
			dc := t.model.DeregCost(victim.Size)
			cost += dc
			t.DeregTime += dc
			t.ev.Evicted(victim)
			t.record(now, flight.KindPinEvict, victim)
		}
	}
	t.seq++
	e := &PinEntry{Base: base, Size: size, Tag: tag, LastUse: now, seq: t.seq}
	t.entries[base] = e
	t.total += size
	t.Pins++
	if len(t.entries) > t.MaxLive {
		t.MaxLive = len(t.entries)
	}
	if t.ev.Insert(e) {
		t.GhostHits++
	}
	rc := t.model.RegCost(size)
	t.RegTime += rc
	return cost + rc, nil
}

// Reset empties the table without charging any virtual time: a node
// crash loses the NIC's registration state outright — there is no
// orderly deregistration to pay for. Cumulative counters (Pins, Unpins,
// RegTime, ...) survive, since they describe work the run really did.
// It returns the number of entries dropped.
func (t *PinTable) Reset() int {
	n := len(t.entries)
	t.entries = make(map[Addr]*PinEntry)
	t.total = 0
	t.ev.Reset()
	return n
}

// Unpin releases the region at base at time now and returns the
// deregistration cost the caller must charge, or 0 if the region was
// not pinned (freeing an object that was never remotely accessed). The
// cost does not depend on now.
func (t *PinTable) Unpin(base Addr, now sim.Time) sim.Time {
	e, ok := t.entries[base]
	if !ok {
		return 0
	}
	t.ev.Remove(e)
	delete(t.entries, base)
	t.Unpins++
	t.total -= e.Size
	dc := t.model.DeregCost(e.Size)
	t.DeregTime += dc
	return dc
}
