package mem

import (
	"fmt"
	"math/bits"

	"xlupc/internal/sim"
)

// Evictor selects which live registration a PinTable deregisters when a
// pin request exceeds the total budget under PinLimited. Implementations
// keep their own view of the table through the entries' intrusive list
// links, so victim selection never scans the backing map — eviction
// storms are O(1) per victim (plus any tie suffix) and independent of
// Go's randomized map iteration order.
//
// Every implementation must be deterministic: identical call sequences
// produce identical victim sequences, with ties broken by insertion seq.
type Evictor interface {
	// Name is the policy's stable identifier ("lru", "clock", "cost").
	Name() string
	// Insert notes a fresh registration. The returned flag reports a
	// ghost-list recognition (cost-aware policy only): the base was
	// recently evicted and the entry comes back protected.
	Insert(e *PinEntry) (ghostHit bool)
	// Touch notes a use of a live entry (LastUse is already updated).
	Touch(e *PinEntry)
	// Remove notes that e left the live set (unpin, park or eviction).
	Remove(e *PinEntry)
	// Victim returns the next entry to deregister, or nil when empty.
	// The table removes it and then calls Evicted.
	Victim(now sim.Time) *PinEntry
	// Evicted notes that a Victim result was actually deregistered
	// under pressure (ghost-list bookkeeping; no-op for most policies).
	Evicted(e *PinEntry)
	// Reset drops all policy state (node crash).
	Reset()
}

// EvictorKind names the built-in victim policies for configuration
// plumbing (profiles and CLIs hold the kind; each node builds its own
// Evictor instance from it).
type EvictorKind int

const (
	// EvictLRU deregisters the least-recently-used region — the
	// historical default, bit-identical to the original map scan.
	EvictLRU EvictorKind = iota
	// EvictClock is the CLOCK second-chance approximation: a reference
	// bit per entry and a rotating hand, no reordering on touch.
	EvictClock
	// EvictCost weighs idle time against deregistration cost
	// (dereg-cost × recency) over a small tail window, with an
	// ARC-style ghost list that protects regions proven to come back.
	EvictCost
)

func (k EvictorKind) String() string {
	switch k {
	case EvictClock:
		return "clock"
	case EvictCost:
		return "cost"
	default:
		return "lru"
	}
}

// ParseEvictor resolves a policy name from a CLI flag.
func ParseEvictor(s string) (EvictorKind, error) {
	switch s {
	case "lru", "":
		return EvictLRU, nil
	case "clock":
		return EvictClock, nil
	case "cost":
		return EvictCost, nil
	}
	return EvictLRU, fmt.Errorf("mem: unknown pin evictor %q (want lru, clock or cost)", s)
}

// New builds a fresh Evictor of this kind for one node's table.
func (k EvictorKind) New(model CostModel) Evictor {
	switch k {
	case EvictClock:
		return NewClockEvictor()
	case EvictCost:
		return NewCostEvictor(model)
	default:
		return NewLRUEvictor()
	}
}

// pinList is the intrusive doubly-linked list over PinEntry that each
// evictor keeps its entries on.
type pinList struct {
	head, tail *PinEntry
}

func (l *pinList) pushFront(e *PinEntry) {
	e.prev, e.next = nil, l.head
	if l.head != nil {
		l.head.prev = e
	} else {
		l.tail = e
	}
	l.head = e
}

func (l *pinList) pushBack(e *PinEntry) {
	e.prev, e.next = l.tail, nil
	if l.tail != nil {
		l.tail.next = e
	} else {
		l.head = e
	}
	l.tail = e
}

func (l *pinList) unlink(e *PinEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// lruEvictor keeps entries in recency order (head = most recent).
// Virtual time is monotone, so the list is always sorted by LastUse
// descending; the victim is the minimum-(LastUse, seq) entry — found by
// scanning only the tail suffix that ties on LastUse, which reproduces
// the original full-map scan exactly.
type lruEvictor struct{ l pinList }

// NewLRUEvictor returns the default least-recently-used policy.
func NewLRUEvictor() Evictor { return &lruEvictor{} }

func (v *lruEvictor) Name() string { return "lru" }

func (v *lruEvictor) Insert(e *PinEntry) bool {
	v.l.pushFront(e)
	return false
}

func (v *lruEvictor) Touch(e *PinEntry) {
	if v.l.head != e {
		v.l.unlink(e)
		v.l.pushFront(e)
	}
}

func (v *lruEvictor) Remove(e *PinEntry) { v.l.unlink(e) }

func (v *lruEvictor) Victim(sim.Time) *PinEntry {
	t := v.l.tail
	if t == nil {
		return nil
	}
	best := t
	for e := t.prev; e != nil && e.LastUse == t.LastUse; e = e.prev {
		if e.seq < best.seq {
			best = e
		}
	}
	return best
}

func (v *lruEvictor) Evicted(*PinEntry) {}

func (v *lruEvictor) Reset() { v.l = pinList{} }

// clockEvictor is the classic second-chance approximation: entries sit
// in insertion order, a touch only sets the reference bit, and the hand
// sweeps forward clearing bits until it finds an unreferenced entry.
type clockEvictor struct {
	l    pinList // insertion order, head = oldest
	hand *PinEntry
}

// NewClockEvictor returns the CLOCK second-chance policy.
func NewClockEvictor() Evictor { return &clockEvictor{} }

func (v *clockEvictor) Name() string { return "clock" }

func (v *clockEvictor) Insert(e *PinEntry) bool {
	e.ref = false
	v.l.pushBack(e)
	return false
}

func (v *clockEvictor) Touch(e *PinEntry) { e.ref = true }

func (v *clockEvictor) Remove(e *PinEntry) {
	if v.hand == e {
		v.hand = e.next // nil wraps to head on the next sweep
	}
	v.l.unlink(e)
}

func (v *clockEvictor) Victim(sim.Time) *PinEntry {
	if v.l.head == nil {
		return nil
	}
	h := v.hand
	if h == nil {
		h = v.l.head
	}
	// Terminates: a full sweep clears every reference bit.
	for {
		if !h.ref {
			v.hand = h.next
			return h
		}
		h.ref = false
		if h = h.next; h == nil {
			h = v.l.head
		}
	}
}

func (v *clockEvictor) Evicted(*PinEntry) {}

func (v *clockEvictor) Reset() { v.l, v.hand = pinList{}, nil }

// Cost-aware policy defaults.
const (
	// DefaultCostWindow is how many tail (coldest) entries the
	// cost-aware policy scores per eviction. Small and constant, so an
	// eviction storm stays O(1) per victim.
	DefaultCostWindow = 8
	// DefaultGhostCap bounds the ghost list of recently evicted bases.
	DefaultGhostCap = 64
	// costStuckLimit is how many consecutive all-protected victim
	// requests the cost-aware policy refuses (each refusal degrades one
	// pin to the AM path) before concluding the protected set is stale
	// and demoting it. Bounds how long a shifted working set can be
	// locked out of the table.
	costStuckLimit = 32
)

// costEvictor maximizes idle-time per unit of deregistration cost over
// a bounded tail window: an old, cheap-to-deregister region goes before
// a young, expensive one. Bases that come back after eviction (the
// ghost list remembers them, ARC-style) return protected — the policy
// stops sacrificing regions it has already been punished for evicting,
// which is what survives a cyclic scan that defeats pure LRU.
type costEvictor struct {
	model CostModel
	l     pinList // recency order like LRU
	ghost map[Addr]struct{}
	fifo  []Addr // eviction order; stale heads skipped lazily
	stuck int    // consecutive all-protected refusals
}

// NewCostEvictor returns the cost-aware policy.
func NewCostEvictor(model CostModel) Evictor {
	return &costEvictor{model: model, ghost: make(map[Addr]struct{})}
}

func (v *costEvictor) Name() string { return "cost" }

func (v *costEvictor) Insert(e *PinEntry) bool {
	e.protected = false
	if _, ok := v.ghost[e.Base]; ok {
		delete(v.ghost, e.Base)
		e.protected = true
		v.l.pushFront(e)
		return true
	}
	v.l.pushFront(e)
	return false
}

func (v *costEvictor) Touch(e *PinEntry) {
	if v.l.head != e {
		v.l.unlink(e)
		v.l.pushFront(e)
	}
}

func (v *costEvictor) Remove(e *PinEntry) { v.l.unlink(e) }

// better reports whether a's idle/cost score beats b's, deterministic
// ties resolved by (older LastUse, smaller seq). The cross-multiplied
// comparison uses 128-bit products, so no overflow and no floats.
func (v *costEvictor) better(a, b *PinEntry, now sim.Time) bool {
	idleA, idleB := uint64(now-a.LastUse), uint64(now-b.LastUse)
	costA, costB := uint64(v.model.DeregCost(a.Size)), uint64(v.model.DeregCost(b.Size))
	hiA, loA := bits.Mul64(idleA, costB) // a's score × common denominator
	hiB, loB := bits.Mul64(idleB, costA)
	if hiA != hiB {
		return hiA > hiB
	}
	if loA != loB {
		return loA > loB
	}
	if a.LastUse != b.LastUse {
		return a.LastUse < b.LastUse
	}
	return a.seq < b.seq
}

func (v *costEvictor) Victim(now sim.Time) *PinEntry {
	if v.l.tail == nil {
		return nil
	}
	var best *PinEntry
	n := 0
	for e := v.l.tail; e != nil && n < DefaultCostWindow; e, n = e.prev, n+1 {
		if e.protected {
			continue
		}
		if best == nil || v.better(e, best, now) {
			best = e
		}
	}
	if best == nil {
		// The whole window is protected: regions proven to come back
		// fill the budget. Refuse the eviction — the caller's pin fails
		// and that access degrades to the AM path, which is cheaper than
		// sacrificing a region the ghost list has already punished us
		// for evicting. A bounded run of refusals is the escape hatch
		// for a genuinely shifted working set: after costStuckLimit
		// consecutive refusals the protected set is presumed stale,
		// demoted, and plain LRU resumes.
		if v.stuck++; v.stuck < costStuckLimit {
			return nil
		}
		v.stuck = 0
		n = 0
		for e := v.l.tail; e != nil && n < DefaultCostWindow; e, n = e.prev, n+1 {
			e.protected = false
		}
		best = v.l.tail
		for e := best.prev; e != nil && e.LastUse == v.l.tail.LastUse; e = e.prev {
			if e.seq < best.seq {
				best = e
			}
		}
		return best
	}
	v.stuck = 0
	return best
}

func (v *costEvictor) Evicted(e *PinEntry) {
	if _, ok := v.ghost[e.Base]; ok {
		return
	}
	v.ghost[e.Base] = struct{}{}
	v.fifo = append(v.fifo, e.Base)
	for len(v.ghost) > DefaultGhostCap {
		old := v.fifo[0]
		v.fifo = v.fifo[1:]
		delete(v.ghost, old) // stale duplicates impossible: one fifo slot per resident key
	}
}

func (v *costEvictor) Reset() {
	v.l = pinList{}
	v.ghost = make(map[Addr]struct{})
	v.fifo = nil
	v.stuck = 0
}
