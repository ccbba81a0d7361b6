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

	// Intrusive links: owned by exactly one list at a time — the
	// evictor's recency/insertion list while live, the table's
	// dead-list while parked under lazy unpinning.
	prev, next *PinEntry
	ref        bool // CLOCK reference bit
	protected  bool // cost-aware ghost-list protection
	parked     bool // in the dead-list: registered but logically freed
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

// DefaultLazyEntries bounds the lazy-unpin dead-list when LazyConfig
// leaves MaxEntries at zero.
const DefaultLazyEntries = 64

// LazyConfig enables the lazy-unpin registration cache: Unpin parks the
// registration in a bounded dead-list instead of deregistering, a
// re-pin of a parked region revives it for free, and the real
// deregistration cost is paid only when the dead-list overflows or the
// pin budget needs the room.
type LazyConfig struct {
	// MaxEntries bounds the dead-list population; 0 means
	// DefaultLazyEntries, negative means unbounded.
	MaxEntries int
	// MaxBytes bounds the parked bytes; 0 or negative means unbounded
	// (parked bytes still count against the table's MaxTotal, so the
	// pin budget itself is never exceeded).
	MaxBytes int
}

func (c LazyConfig) effEntries() int {
	if c.MaxEntries == 0 {
		return DefaultLazyEntries
	}
	return c.MaxEntries
}

// PinTable is a node's pinned address table.
type PinTable struct {
	node    int
	model   CostModel
	policy  PinPolicy
	entries map[Addr]*PinEntry
	total   int // pinned bytes, live and parked: what the NIC holds registered
	seq     int64
	ev      Evictor
	fr      *flight.Recorder // nil = no flight recording

	// Lazy-unpin registration cache (nil = eager dereg, the default).
	lazy      *LazyConfig
	dead      map[Addr]*PinEntry
	deadList  pinList // FIFO: head = parked longest ago
	deadBytes int

	PinStats
}

// PinStats is what a pin table counts. The lazy-unpin and evictor
// extras (Reuses through Repins) stay zero under the default eager-LRU
// behaviour.
type PinStats struct {
	Pins      int64    // registrations performed
	Unpins    int64    // explicit deregistrations
	Evicted   int64    // PinLimited-policy deregistrations of live regions
	Reuses    int64    // re-pins served for free from the dead-list
	Parked    int64    // lazy unpins that parked instead of deregistering
	Reclaims  int64    // parked registrations finally deregistered
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
	s.Evicted += o.Evicted
	s.Reuses += o.Reuses
	s.Parked += o.Parked
	s.Reclaims += o.Reclaims
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
	if len(t.entries) > 0 || t.deadList.len > 0 {
		panic("mem: SetEvictor on a non-empty pin table")
	}
	t.ev = ev
}

// SetLazyUnpin enables (or, with nil, disables) the lazy-unpin
// registration cache. Like SetEvictor it must precede any pin traffic.
func (t *PinTable) SetLazyUnpin(cfg *LazyConfig) {
	if len(t.entries) > 0 || t.deadList.len > 0 {
		panic("mem: SetLazyUnpin on a non-empty pin table")
	}
	t.lazy = cfg
	if cfg != nil && t.dead == nil {
		t.dead = make(map[Addr]*PinEntry)
	}
}

// SetFlightRecorder attaches (or, with nil, detaches) a flight
// recorder; evictions, parks and reuse hits are recorded on the owning
// node's ring.
func (t *PinTable) SetFlightRecorder(fr *flight.Recorder) { t.fr = fr }

// TotalPinned reports the total registered bytes, live plus parked.
func (t *PinTable) TotalPinned() int { return t.total }

// Live reports the number of live (pinned, not parked) regions.
func (t *PinTable) Live() int { return len(t.entries) }

// Dead reports the number of parked registrations in the dead-list.
func (t *PinTable) Dead() int { return t.deadList.len }

// IsPinned reports whether the region based at base is live-pinned.
// Parked regions are not pinned: they fail TouchOK like any other
// deregistered region until a re-pin revives them.
func (t *PinTable) IsPinned(base Addr) bool {
	_, ok := t.entries[base]
	return ok
}

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
// the region afresh (both costs charged). Under lazy unpinning a
// re-pin of a parked region revives the retained registration for
// free.
//
// Per-object limits fail regardless of policy (the caller falls back
// to non-RDMA transfer, as XLUPC does for over-large LAPI handles).
// Total limits fail under PinAll and trigger evictor-chosen
// deregistration under PinLimited; parked registrations are always
// reclaimed before live ones are sacrificed.
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
	} else if t.lazy != nil {
		if e, ok := t.dead[base]; ok {
			if e.Size == size {
				return 0, t.revive(e, tag, now)
			}
			// Parked at the wrong size: worthless, reclaim it now.
			cost += t.reclaim(e)
		}
	}
	if t.model.MaxPerObject > 0 && size > t.model.MaxPerObject {
		return cost, &ErrPinLimit{Base: base, Size: size, Reason: "exceeds per-object registration limit", Limit: t.model.MaxPerObject}
	}
	if t.model.MaxTotal > 0 && t.total+size > t.model.MaxTotal {
		// Parked registrations are dead weight: reclaim them (oldest
		// first) before failing or touching live regions.
		for t.total+size > t.model.MaxTotal && t.deadList.head != nil {
			cost += t.reclaim(t.deadList.head)
		}
		if t.total+size > t.model.MaxTotal && t.policy == PinAll {
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
			t.Evicted++
			t.ev.Evicted(victim)
			t.fr.Record(t.node, flight.Event{
				T: now, Kind: flight.KindPinEvict, Class: flight.ClassDMA,
				Src: int32(t.node), Dst: -1, Seq: victim.Tag, Arg: int64(victim.Size),
			})
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

// revive moves a parked registration back into the live set: the NIC
// handle never went away, so the re-pin is free.
func (t *PinTable) revive(e *PinEntry, tag uint64, now sim.Time) error {
	t.deadList.unlink(e)
	delete(t.dead, e.Base)
	t.deadBytes -= e.Size
	e.parked = false
	e.Tag = tag
	e.LastUse = now
	t.seq++
	e.seq = t.seq
	t.entries[e.Base] = e
	t.Pins++
	t.Reuses++
	if len(t.entries) > t.MaxLive {
		t.MaxLive = len(t.entries)
	}
	if t.ev.Insert(e) {
		t.GhostHits++
	}
	t.fr.Record(t.node, flight.Event{
		T: now, Kind: flight.KindPinReuse, Class: flight.ClassDMA,
		Src: int32(t.node), Dst: -1, Seq: e.Tag, Arg: int64(e.Size),
	})
	return nil
}

// reclaim finally deregisters a parked entry and returns the cost.
func (t *PinTable) reclaim(e *PinEntry) sim.Time {
	t.deadList.unlink(e)
	delete(t.dead, e.Base)
	t.deadBytes -= e.Size
	t.total -= e.Size
	dc := t.model.DeregCost(e.Size)
	t.DeregTime += dc
	t.Reclaims++
	return dc
}

// Reset empties the table without charging any virtual time: a node
// crash loses the NIC's registration state outright — there is no
// orderly deregistration to pay for, and parked registrations vanish
// just as freely as live ones. Cumulative counters (Pins, Unpins,
// RegTime, ...) survive, since they describe work the run really did.
// It returns the number of entries dropped, live plus parked.
func (t *PinTable) Reset() int {
	n := len(t.entries) + t.deadList.len
	t.entries = make(map[Addr]*PinEntry)
	t.total = 0
	t.ev.Reset()
	if t.lazy != nil {
		t.dead = make(map[Addr]*PinEntry)
	}
	t.deadList = pinList{}
	t.deadBytes = 0
	return n
}

// Unpin releases the region at base at time now and returns the
// deregistration cost the caller must charge, or 0 if the region was
// not pinned (freeing an object that was never remotely accessed).
// Under lazy unpinning the registration parks in the dead-list instead
// and the returned cost covers only any dead-list overflow reclaims.
func (t *PinTable) Unpin(base Addr, now sim.Time) sim.Time {
	e, ok := t.entries[base]
	if !ok {
		return 0
	}
	t.ev.Remove(e)
	delete(t.entries, base)
	t.Unpins++
	if t.lazy == nil {
		t.total -= e.Size
		dc := t.model.DeregCost(e.Size)
		t.DeregTime += dc
		return dc
	}
	e.parked = true
	t.dead[base] = e
	t.deadList.pushBack(e)
	t.deadBytes += e.Size
	t.Parked++
	t.fr.Record(t.node, flight.Event{
		T: now, Kind: flight.KindPinPark, Class: flight.ClassDMA,
		Src: int32(t.node), Dst: -1, Seq: e.Tag, Arg: int64(e.Size),
	})
	cost := sim.Time(0)
	if max := t.lazy.effEntries(); max > 0 {
		for t.deadList.len > max {
			cost += t.reclaim(t.deadList.head)
		}
	}
	if t.lazy.MaxBytes > 0 {
		for t.deadBytes > t.lazy.MaxBytes && t.deadList.head != nil {
			cost += t.reclaim(t.deadList.head)
		}
	}
	return cost
}
