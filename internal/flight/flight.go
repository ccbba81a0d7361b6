// Package flight is the simulation's flight recorder: one record of
// every structured virtual-time event the runtime has a Kind for. It
// always keeps a count per (node, kind, class) — the only copy of those
// counts: a run's stats read them as Totals, one per kind — and, when
// a run asks for them, a fixed-capacity per-node ring of the events
// themselves. Aggregate metrics explain average cost; the rings explain
// single-event mysteries — a stale NACK, a retransmit parked against a
// restart timer, a checksum divergence — by preserving the last N
// wire-level events each node saw before a failure.
//
// Recording is host-side only and costs no virtual time: a run with
// rings finishes at the identical virtual instant as one without, and
// two identically-seeded runs record identical event streams. Without
// rings a record is one table increment and one branch.
//
// The table and the rings are allocated up front — the steady-state
// recording path performs no heap allocation. Dumps (see dump.go)
// serialize the ring tails as JSONL for machines and as a single
// virtual-time-interleaved listing for humans.
package flight

import (
	"io"

	"xlupc/internal/sim"
)

// Kind classifies one recorded event.
type Kind uint8

const (
	KindSend        Kind = iota // packet injected into the fabric
	KindRecv                    // packet physically delivered
	KindDrop                    // packet vanished on the wire
	KindCorrupt                 // packet delivered with a failing checksum
	KindDuplicate               // packet delivered twice by the fabric
	KindDelay                   // packet given extra wire latency
	KindStall                   // arrival held by a NIC-stall window
	KindCrashDrop               // arrival dropped at a down (mid-restart) NIC
	KindAck                     // reliable-layer acknowledgement sent
	KindRetransmit              // reliable-layer timer-driven re-injection
	KindPark                    // retransmit parked against a peer's restart timer
	KindRetryFail               // retry budget exhausted (TransportError)
	KindDupSuppress             // replayed packet discarded by target-side dedup
	KindCorruptDrop             // arrival discarded by the integrity check
	KindStaleNack               // RDMA op NACKed for a stale target epoch
	KindPinNack                 // RDMA op NACKed for a deregistered region
	KindCacheInval              // address-cache entries invalidated
	KindCoalFlush               // coalescing buffer flushed as one frame
	KindPinEvict                // pin-table LRU deregistration
	KindCrash                   // node taken down (epoch bumped)
	KindRestart                 // restart confirmed by a post-restart RDMA op
	KindAtomic                  // NIC-executed atomic applied at the target
	KindPinPark                 // lazy unpin parked a registration in the dead-list
	KindPinReuse                // re-pin revived a parked registration for free
	kindCount
)

// kindNames are the stable identifiers used by both dump formats.
var kindNames = [kindCount]string{
	KindSend:        "send",
	KindRecv:        "recv",
	KindDrop:        "drop",
	KindCorrupt:     "corrupt",
	KindDuplicate:   "duplicate",
	KindDelay:       "delay",
	KindStall:       "stall",
	KindCrashDrop:   "crash_drop",
	KindAck:         "ack",
	KindRetransmit:  "retransmit",
	KindPark:        "park",
	KindRetryFail:   "retry_fail",
	KindDupSuppress: "dup_suppress",
	KindCorruptDrop: "corrupt_drop",
	KindStaleNack:   "stale_nack",
	KindPinNack:     "pin_nack",
	KindCacheInval:  "cache_invalidate",
	KindCoalFlush:   "coalesce_flush",
	KindPinEvict:    "pin_evict",
	KindCrash:       "crash",
	KindRestart:     "restart",
	KindAtomic:      "atomic",
	KindPinPark:     "pin_park",
	KindPinReuse:    "pin_reuse",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "unknown"
}

// Class tags which arrival path an event belongs to, mirroring
// fabric.Class plus "none" for events that are not packets.
type Class uint8

const (
	ClassNone Class = iota
	ClassAM
	ClassDMA
	classCount
)

func (c Class) String() string {
	switch c {
	case ClassAM:
		return "am"
	case ClassDMA:
		return "dma"
	default:
		return ""
	}
}

// Event is one recorded occurrence. It is a fixed-size value with no
// pointers, so rings of them never touch the garbage collector and
// recording is a couple of stores.
type Event struct {
	T     sim.Time // virtual time the event was recorded
	Kind  Kind
	Class Class
	Src   int32  // sending / initiating node (-1 when not applicable)
	Dst   int32  // receiving / target node (-1 when not applicable)
	Seq   uint64 // kind-specific identity: channel seq, epoch, handle key
	Arg   int64  // kind-specific magnitude: bytes, attempts, entries, delay
}

// ring is one node's event history: a power-of-two-free circular buffer
// where next counts every event ever recorded, so next%cap is the write
// slot and next-cap (when positive) the number overwritten.
type ring struct {
	buf  []Event
	next uint64
}

func (r *ring) record(e Event) {
	r.buf[r.next%uint64(len(r.buf))] = e
	r.next++
}

// snapshot appends the ring's surviving events in record order to dst.
func (r *ring) snapshot(dst []Event) []Event {
	n := uint64(len(r.buf))
	start := uint64(0)
	if r.next > n {
		start = r.next - n
	}
	for i := start; i < r.next; i++ {
		dst = append(dst, r.buf[i%n])
	}
	return dst
}

// Config gives a run's recorder its rings and shapes its failure dumps.
type Config struct {
	// PerNode is the ring capacity per node; 0 means DefaultPerNode.
	PerNode int
	// Tail is how many trailing events per involved node a dump
	// includes; 0 means DefaultTail.
	Tail int
	// Dump, when non-nil, receives an automatic failure dump — the
	// JSONL records followed by a '#'-prefixed human-readable tail —
	// whenever the run ends in a DeadlockError, TransportError,
	// CrashError or equivalent (see core.Runtime.Run).
	Dump io.Writer
}

// Default recorder dimensions: deep enough to span a retransmit storm
// (hundreds of wire events) without holding a whole run.
const (
	DefaultPerNode = 512
	DefaultTail    = 64
)

// EffPerNode and EffTail resolve the configured sizes. Nil-safe: a nil
// config yields the defaults.
func (c *Config) EffPerNode() int {
	if c == nil || c.PerNode <= 0 {
		return DefaultPerNode
	}
	return c.PerNode
}

func (c *Config) EffTail() int {
	if c == nil || c.Tail <= 0 {
		return DefaultTail
	}
	return c.Tail
}

// Recorder is one run's flight recorder: a count per (node, kind,
// class), and a fixed ring per node once AddRings has run.
type Recorder struct {
	nodes  int
	counts []int64 // by slot(node, kind, class)
	rings  []ring  // nil: counting only
}

// slot is the table index of node's count of kind k and class c.
func slot(node int, k Kind, c Class) int {
	return (node*int(kindCount)+int(k))*int(classCount) + int(c)
}

// New returns a counting recorder for n nodes. Its table is allocated
// here, once; recording never allocates afterwards.
func New(nodes int) *Recorder {
	return &Recorder{nodes: nodes, counts: make([]int64, nodes*int(kindCount)*int(classCount))}
}

// AddRings gives every node a ring of the given capacity (0 or negative
// means DefaultPerNode), so records are kept as well as counted. Call
// before the simulation starts.
func (r *Recorder) AddRings(perNode int) {
	if perNode <= 0 {
		perNode = DefaultPerNode
	}
	r.rings = make([]ring, r.nodes)
	buf := make([]Event, r.nodes*perNode) // one block, cache-friendly
	for i := range r.rings {
		r.rings[i].buf = buf[i*perNode : (i+1)*perNode : (i+1)*perNode]
	}
}

// HasRings reports whether records are kept, not only counted.
func (r *Recorder) HasRings() bool { return r.rings != nil }

// Record counts one event of node and, when rings exist, appends it to
// node's ring. A node out of range is a caller's bug and panics.
func (r *Recorder) Record(node int, e Event) {
	r.counts[slot(node, e.Kind, e.Class)]++
	if r.rings != nil {
		r.rings[node].record(e)
	}
}

// Totals is how many events of each kind every node recorded, all
// classes, indexed by Kind.
type Totals [kindCount]int64

// Totals sums the table by kind in one pass.
func (r *Recorder) Totals() Totals {
	var t Totals
	for i, n := range r.counts {
		t[i/int(classCount)%int(kindCount)] += n
	}
	return t
}

// Total is how many events of kind k every node recorded, all classes.
func (r *Recorder) Total(k Kind) int64 {
	var n int64
	for c := ClassNone; c < classCount; c++ {
		n += r.OfClass(k, c)
	}
	return n
}

// OfClass is how many events of kind k and class c every node recorded.
func (r *Recorder) OfClass(k Kind, c Class) int64 {
	var n int64
	for node := 0; node < r.nodes; node++ {
		n += r.counts[slot(node, k, c)]
	}
	return n
}

// OfNode is how many events of kind k node recorded, all classes.
func (r *Recorder) OfNode(node int, k Kind) int64 {
	var n int64
	for c := ClassNone; c < classCount; c++ {
		n += r.counts[slot(node, k, c)]
	}
	return n
}

// Node returns node's surviving events in record order (none without
// rings). The slice is freshly allocated; mutating it does not affect
// the ring.
func (r *Recorder) Node(node int) []Event {
	if r.rings == nil || node < 0 || node >= r.nodes {
		return nil
	}
	return r.rings[node].snapshot(nil)
}

// Tail returns the last n surviving events of node in record order.
func (r *Recorder) Tail(node, n int) []Event {
	evs := r.Node(node)
	if n > 0 && len(evs) > n {
		evs = evs[len(evs)-n:]
	}
	return evs
}
