package sim

// The kernel's event queue. Almost every delay in the model is one of a
// few dozen profile constants, and events scheduled with the same delay
// d = t − now arrive in nondecreasing (t, seq) because the clock is
// monotone — so a recurring delay needs a FIFO, not a heap.
//
// laneQueue keeps four stores and always pops the global minimum by
// (t, seq) over their heads, which makes the event stream identical to
// a single heap's by construction:
//
//   - lanes: one ring per recurring delay, O(1) push and pop;
//   - heads: a binary min-heap over the head of every non-empty lane
//     (at most numLanes entries, L1-resident), touched only when a
//     lane's head changes;
//   - now: a FIFO of zero-delay events. They carry the current time and
//     the largest seq so far, so they sort after every other event of
//     the instant, and nothing later can sort before them;
//   - over: the 4-ary eventHeap, for delays that do not recur
//     (jittered, size-dependent, At before Run) and for any event a
//     lane cannot take in order.
//
// Which delays get a lane is decided from the traffic alone: a delay
// earns one the second time it is seen, and when every lane is taken it
// reclaims the empty lane that has been idle longest.

const (
	numLanes  = 32
	tableBits = 7 // 4 slots per lane: half the table for lanes and candidates, half free
	tableSize = 1 << tableBits
)

// ring is a FIFO of events in a power-of-two circular buffer. It grows
// by doubling and never shrinks: an emptied ring is refilled in place.
type ring struct {
	buf  []event
	head int
	n    int
}

func (r *ring) front() *event { return &r.buf[r.head] }

// add appends an event. The queue moves events field by field, here
// and in take: event is too wide for the compiler to keep in registers,
// and whole-struct copies of a value just assembled on the stack stall
// on store forwarding — measurably, at one or two pending events.
func (r *ring) add(t Time, seq uint64, fn func(), tm *Timer) {
	if r.n == len(r.buf) {
		r.grow()
	}
	s := &r.buf[(r.head+r.n)&(len(r.buf)-1)]
	s.t, s.seq, s.fn, s.tm = t, seq, fn, tm
	r.n++
}

func (r *ring) grow() {
	nb := make([]event, max(2*len(r.buf), 16))
	n := copy(nb, r.buf[r.head:])
	copy(nb[n:], r.buf[:r.head])
	r.buf, r.head = nb, 0
}

// drop removes the front event.
func (r *ring) drop() {
	s := &r.buf[r.head]
	s.fn, s.tm = nil, nil // release the closure for GC
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
}

// lane is the FIFO of one delay class.
type lane struct {
	ring
	d    Duration // the delay served; 0 = never assigned
	tail Time     // t of the newest event, meaningful while n > 0
	used uint64   // seq of the newest push: the idlest empty lane is reclaimed first
}

// laneHead is a heads entry: the key of lane's oldest event.
type laneHead struct {
	t    Time
	seq  uint64
	lane int
}

// store names where the queue's current minimum sits.
type store uint8

const (
	inLane store = iota
	inNow
	inOver
)

type laneQueue struct {
	now    ring
	heads  [numLanes]laneHead
	nheads int
	lanes  [numLanes]lane // the first stats.Lanes are assigned
	// Open-addressed delay → lane table, keys apart from values so a
	// probe reads one dense array. Key 0 = free slot (zero delays never
	// reach the table); lane -1 = candidate: seen once, no lane yet.
	keys   [tableSize]Duration
	laneAt [tableSize]int8
	filled int // slots in use; at most tableSize/2
	over   eventHeap

	pending int
	stats   QueueStats
}

// QueueStats is the host-side account of where the event queue put its
// traffic. It describes the simulator, not the model: it is not part of
// any run result.
type QueueStats struct {
	LanePushes     int64 // events filed in a per-delay FIFO lane
	NowPushes      int64 // zero-delay events
	OverflowPushes int64 // events that went to the fallback heap
	Lanes          int   // delay classes holding a lane
	MaxPending     int   // high-water mark of pending events
}

func slotOf(d Duration) int {
	return int(uint64(d) * 0x9E3779B97F4A7C15 >> (64 - tableBits)) // Fibonacci hashing
}

// push files the event (t, seq, fn, tm), scheduled at virtual time now.
func (q *laneQueue) push(now, t Time, seq uint64, fn func(), tm *Timer) {
	q.pending++
	if q.pending > q.stats.MaxPending {
		q.stats.MaxPending = q.pending
	}
	d := t - now
	if d == 0 {
		q.stats.NowPushes++
		q.now.add(t, seq, fn, tm)
		return
	}
	if i := q.laneFor(d); i >= 0 {
		ln := &q.lanes[i]
		// tail ≤ t always holds while the clock is monotone; if it ever
		// does not, the heap keeps the order right.
		if ln.n == 0 || ln.tail <= t {
			if ln.n == 0 {
				q.headPush(laneHead{t, seq, i})
			}
			ln.add(t, seq, fn, tm)
			ln.tail, ln.used = t, seq
			q.stats.LanePushes++
			return
		}
	}
	q.stats.OverflowPushes++
	q.over.pushEv(event{t: t, seq: seq, fn: fn, tm: tm})
}

// laneFor returns the lane serving delay d, or -1 to send the event to
// overflow. A delay missing from the table is only noted there as a
// candidate; its next sighting earns it a lane if one can be had.
func (q *laneQueue) laneFor(d Duration) int {
	for i := slotOf(d); ; i = (i + 1) & (tableSize - 1) {
		switch q.keys[i] {
		case d:
			if q.laneAt[i] < 0 {
				q.laneAt[i] = int8(q.admit(d))
			}
			return int(q.laneAt[i])
		case 0:
			if q.filled == tableSize/2 {
				q.forgetCandidates()
				return q.laneFor(d)
			}
			q.keys[i], q.laneAt[i] = d, -1
			q.filled++
			return -1
		}
	}
}

// admit gives d a fresh lane or, once all are taken, the empty lane
// whose last push is oldest; that lane's delay goes back to being a
// candidate. A lane with events pending is never taken.
func (q *laneQueue) admit(d Duration) int {
	i := q.stats.Lanes
	if i < numLanes {
		q.stats.Lanes++
	} else {
		i = -1
		for j := range q.lanes {
			if ln := &q.lanes[j]; ln.n == 0 && (i < 0 || ln.used < q.lanes[i].used) {
				i = j
			}
		}
		if i < 0 {
			return -1
		}
		s := slotOf(q.lanes[i].d)
		for q.keys[s] != q.lanes[i].d {
			s = (s + 1) & (tableSize - 1)
		}
		q.laneAt[s] = -1
	}
	q.lanes[i].d = d
	return i
}

// forgetCandidates rebuilds the table from the lanes alone, so one-off
// delays cannot fill it. Open addressing has no cheap removal; this
// runs once per tableSize/2 − numLanes new delays at most.
func (q *laneQueue) forgetCandidates() {
	q.keys = [tableSize]Duration{}
	q.filled = q.stats.Lanes
	for j := 0; j < q.filled; j++ {
		s := slotOf(q.lanes[j].d)
		for q.keys[s] != 0 {
			s = (s + 1) & (tableSize - 1)
		}
		q.keys[s], q.laneAt[s] = q.lanes[j].d, int8(j)
	}
}

func (a *laneHead) before(b *laneHead) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

func (q *laneQueue) headPush(h laneHead) {
	i := q.nheads
	q.nheads++
	for i > 0 {
		parent := (i - 1) >> 1
		if !h.before(&q.heads[parent]) {
			break
		}
		q.heads[i] = q.heads[parent]
		i = parent
	}
	q.heads[i] = h
}

// headFix re-seats h from the root after the root lane's head changed
// (h is its new head) or the root lane emptied (h is the last entry).
func (q *laneQueue) headFix(h laneHead) {
	n := q.nheads
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && q.heads[c+1].before(&q.heads[c]) {
			c++
		}
		if !q.heads[c].before(&h) {
			break
		}
		q.heads[i] = q.heads[c]
		i = c
	}
	q.heads[i] = h
}

// head returns the earliest pending event by (t, seq) and the store it
// sits in, or nil when nothing is pending. The pointer is valid until
// the next push or take.
func (q *laneQueue) head() (*event, store) {
	var best *event
	src := inLane
	if q.nheads > 0 {
		best = q.lanes[q.heads[0].lane].front()
	}
	if q.over.Len() > 0 {
		if o := q.over.peek(); best == nil || before(o, best) {
			best, src = o, inOver
		}
	}
	if q.now.n > 0 {
		if z := q.now.front(); best == nil || before(z, best) {
			best, src = z, inNow
		}
	}
	return best, src
}

// take removes the event head just reported in src.
func (q *laneQueue) take(src store) {
	q.pending--
	switch src {
	case inNow:
		q.now.drop()
		return
	case inOver:
		q.over.popEv()
		return
	}
	i := q.heads[0].lane
	ln := &q.lanes[i]
	ln.drop()
	if ln.n > 0 {
		nx := ln.front()
		q.headFix(laneHead{nx.t, nx.seq, i})
	} else {
		q.nheads--
		if q.nheads > 0 {
			q.headFix(q.heads[q.nheads])
		}
	}
}

// release drops every pending event and buffer. The counters and the
// delay→lane assignment survive, so the queue stays consistent.
func (q *laneQueue) release() {
	q.now, q.over = ring{}, eventHeap{}
	for i := range q.lanes {
		q.lanes[i].ring = ring{}
	}
	q.nheads, q.pending = 0, 0
}
