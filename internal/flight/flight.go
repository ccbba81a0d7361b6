// Package flight is the simulation's flight recorder: a fixed-capacity,
// zero-allocation per-node ring buffer of structured virtual-time
// events. Aggregate metrics (telemetry counters, RunStats) explain
// average cost; the flight recorder explains single-event mysteries — a
// stale NACK, a retransmit parked against a restart timer, a checksum
// divergence — by preserving the last N wire-level events each node saw
// before a failure.
//
// Recording is host-side only and costs no virtual time: a run with a
// recorder attached finishes at the identical virtual instant as one
// without, and two identically-seeded runs record identical event
// streams. Every instrumentation site guards with a nil check, so a
// disabled recorder (the default) costs one pointer test and keeps the
// event stream bit-identical to a build without this package.
//
// Events are fixed-size values written into preallocated rings — the
// steady-state recording path performs no heap allocation. Dumps (see
// dump.go) serialize the tail as JSONL for machines and as a single
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

// Config shapes a run's recorder and its failure dumps.
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

// Recorder is one run's flight recorder: a fixed ring per node. A nil
// *Recorder is the disabled layer — Record is nil-safe and free — so
// instrumentation sites hold one field and one check.
type Recorder struct {
	rings []ring
}

// New returns a recorder for n nodes with the given per-node capacity
// (0 or negative means DefaultPerNode). All rings are allocated up
// front; recording never allocates afterwards.
func New(nodes, perNode int) *Recorder {
	if perNode <= 0 {
		perNode = DefaultPerNode
	}
	r := &Recorder{rings: make([]ring, nodes)}
	buf := make([]Event, nodes*perNode) // one block, cache-friendly
	for i := range r.rings {
		r.rings[i].buf = buf[i*perNode : (i+1)*perNode : (i+1)*perNode]
	}
	return r
}

// Record appends one event to node's ring. Nil-safe (the disabled
// recorder) and bounds-tolerant: events for out-of-range nodes are
// dropped rather than panicking mid-dump of some other failure.
func (r *Recorder) Record(node int, e Event) {
	if r == nil || node < 0 || node >= len(r.rings) {
		return
	}
	r.rings[node].record(e)
}

// Recorded reports the total number of events node has recorded,
// including any overwritten by ring wraparound.
func (r *Recorder) Recorded(node int) uint64 {
	if r == nil || node < 0 || node >= len(r.rings) {
		return 0
	}
	return r.rings[node].next
}

// Node returns node's surviving events in record order. The slice is
// freshly allocated; mutating it does not affect the ring.
func (r *Recorder) Node(node int) []Event {
	if r == nil || node < 0 || node >= len(r.rings) {
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
