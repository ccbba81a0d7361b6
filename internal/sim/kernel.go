package sim

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// lazyName is a diagnostic name rendered on demand. Names only exist
// for deadlock reports and panic attribution, so mass construction —
// 128k threads, six resources, queues and dispatchers per node — never
// formats or allocates one.
type lazyName struct {
	prefix string
	idx    int // < 0: prefix is the whole name
	suffix string
}

// Name returns the name: prefix alone, or prefix+idx+suffix
// ("node", 3, ".cpu" renders "node3.cpu").
func (n *lazyName) Name() string {
	if n.idx < 0 {
		return n.prefix
	}
	return n.prefix + strconv.Itoa(n.idx) + n.suffix
}

// event is a scheduled occurrence: a callback to run in kernel context
// at time t. There is no other kind — resuming a process is the callback
// the process bound at spawn (Proc.resumeFn), filed like any other.
type event struct {
	t   Time
	seq uint64 // tie-breaker: FIFO among simultaneous events
	fn  func() // runs in kernel context (must not block)
	tm  *Timer // non-nil: cancellable (AfterTimer); skipped when cancelled
}

// Timer is the handle of a cancellable callback scheduled with
// AfterTimer. Cancel prevents the callback from running; the event
// loop discards a cancelled event without advancing the clock, so
// timers that almost always get cancelled (retransmit timeouts, watch
// dogs) never stretch a run's makespan.
type Timer struct{ cancelled bool }

// Cancel marks the timer dead. Idempotent and nil-safe; cancelling a
// timer whose callback already ran is harmless.
func (t *Timer) Cancel() {
	if t != nil {
		t.cancelled = true
	}
}

// eventHeap is a hand-specialized 4-ary min-heap over []event, ordered
// by (t, seq): the event queue's overflow store (see lanes.go) and the
// oracle its tests compare against. Compared with container/heap it
// avoids the interface boxing (one allocation per Push) and the
// Less/Swap indirection that dominated the event loop's profile; the
// 4-ary shape halves the tree depth, trading slightly more comparisons
// per level for far fewer cache-missing levels on deep heaps.
type eventHeap struct {
	ev []event
}

func (h *eventHeap) Len() int     { return len(h.ev) }
func (h *eventHeap) peek() *event { return &h.ev[0] }

// before reports whether a sorts before b: earlier time first,
// insertion order among simultaneous events.
func before(a, b *event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

func (h *eventHeap) pushEv(e event) {
	h.ev = append(h.ev, e)
	// Sift up.
	i := len(h.ev) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !before(&h.ev[i], &h.ev[parent]) {
			break
		}
		h.ev[i], h.ev[parent] = h.ev[parent], h.ev[i]
		i = parent
	}
}

func (h *eventHeap) popEv() event {
	root := h.ev[0]
	n := len(h.ev) - 1
	last := h.ev[n]
	h.ev[n] = event{} // release the closure for GC
	h.ev = h.ev[:n]
	if n > 0 {
		// Sift the last element down from the root.
		i := 0
		for {
			first := i<<2 + 1
			if first >= n {
				break
			}
			min := first
			end := first + 4
			if end > n {
				end = n
			}
			for c := first + 1; c < end; c++ {
				if before(&h.ev[c], &h.ev[min]) {
					min = c
				}
			}
			if !before(&h.ev[min], &last) {
				break
			}
			h.ev[i] = h.ev[min]
			i = min
		}
		h.ev[i] = last
	}
	return root
}

// Kernel is the discrete-event simulation engine. Create one with
// NewKernel, spawn processes with Spawn, then call Run.
//
// All simulation state (resources, queues, completions) must only be
// touched from process bodies or kernel callbacks; the kernel
// guarantees these never run concurrently.
type Kernel struct {
	now Time
	q   laneQueue
	seq uint64

	procs   map[*Proc]struct{} // live (spawned, not finished) processes
	conts   map[*Cont]struct{} // live continuation-mode threads (see cont.go)
	procSeq uint64             // spawn-order counter (deterministic shutdown)
	stopped bool
	limit   Time  // 0 = no limit
	events  int64 // events processed by Run (host-profiling figure)

	cpool []*Completion // recycled completions (see Recycle)
}

// NewKernel returns an empty kernel with the clock at zero.
func NewKernel() *Kernel {
	return &Kernel{procs: make(map[*Proc]struct{})}
}

// Now reports the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Events reports how many events Run has processed so far — a pure
// function of the (deterministic) event stream, and the numerator of
// the host-profiling events/second figure.
func (k *Kernel) Events() int64 { return k.events }

// QueueStats reports where the event queue filed the events scheduled
// so far (host-side; see QueueStats). Valid after Shutdown too.
func (k *Kernel) QueueStats() QueueStats { return k.q.stats }

// SetLimit makes Run stop (without error) once the clock would pass t.
// A zero limit means no limit.
func (k *Kernel) SetLimit(t Time) { k.limit = t }

// Stop makes Run return after the current event completes. Pending
// events are discarded.
func (k *Kernel) Stop() { k.stopped = true }

func (k *Kernel) schedule(t Time, fn func()) {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling into the past: %v < now %v", t, k.now))
	}
	k.seq++
	k.q.push(k.now, t, k.seq, fn, nil)
}

// wake schedules fn to run at the current time, behind whatever the
// instant already holds: a parked waiter, a spawn's start, a Yield.
func (k *Kernel) wake(fn func()) { k.schedule(k.now, fn) }

// At schedules fn to run in kernel context at absolute time t.
// fn must not block (no Sleep/Wait/Acquire); it may schedule further
// events, complete completions, and push to queues.
func (k *Kernel) At(t Time, fn func()) { k.schedule(t, fn) }

// After schedules fn to run d from now. See At for restrictions on fn.
func (k *Kernel) After(d Duration, fn func()) { k.At(k.now+d, fn) }

// AfterTimer schedules fn like After but returns a Timer handle whose
// Cancel suppresses the callback. A cancelled event is dropped by the
// event loop without advancing the clock — use this for timeouts that
// are expected to be cancelled on the happy path (the reliable
// transport's retransmit timers), where a plain After would leave the
// run's final virtual time pinned to the last dead timeout.
func (k *Kernel) AfterTimer(d Duration, fn func()) *Timer {
	t := k.now + d
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling into the past: %v < now %v", t, k.now))
	}
	tm := &Timer{}
	k.seq++
	k.q.push(k.now, t, k.seq, fn, tm)
	return tm
}

// Spawn creates a new process named name executing body and schedules
// it to start at the current time. It may be called before Run or from
// any process or callback during the run.
func (k *Kernel) Spawn(name string, body func(p *Proc)) *Proc {
	return k.spawn(lazyName{name, -1, ""}, body, false)
}

// SpawnIdx is Spawn with an index-derived name (prefix + idx, rendered
// only when diagnostics ask for it), so spawning 128k threads performs
// no name formatting or string allocation.
func (k *Kernel) SpawnIdx(prefix string, idx int, body func(p *Proc)) *Proc {
	return k.spawn(lazyName{prefix, idx, ""}, body, false)
}

// SpawnDaemon creates a service process (a dispatcher loop) that is
// expected to block forever: it does not keep Run alive and is ignored
// by deadlock detection. Run returns cleanly once only daemons remain.
func (k *Kernel) SpawnDaemon(name string, body func(p *Proc)) *Proc {
	return k.spawn(lazyName{name, -1, ""}, body, true)
}

// SpawnDaemonIdx is SpawnDaemon with an index-derived name (prefix +
// idx + suffix, rendered only when diagnostics ask for it) for the
// per-node service loops.
func (k *Kernel) SpawnDaemonIdx(prefix string, idx int, suffix string, body func(p *Proc)) *Proc {
	return k.spawn(lazyName{prefix, idx, suffix}, body, true)
}

func (k *Kernel) spawn(name lazyName, body func(p *Proc), daemon bool) *Proc {
	k.procSeq++
	p := &Proc{
		k:        k,
		lazyName: name,
		seq:      k.procSeq,
		state:    "starting",
		daemon:   daemon,
	}
	p.c = Cont{k: k, lazyName: name, state: "running"}
	k.procs[p] = struct{}{}
	p.start(body)
	k.wake(p.resumeFn)
	return p
}

// Run executes events until the event queue drains, Stop is called, or
// the optional time limit is reached. It returns a DeadlockError if
// live processes remain blocked with no pending events, which usually
// indicates a protocol bug (a completion never completed).
//
// Run does not release the coroutines backing still-blocked processes;
// callers that build many kernels must call Shutdown once the run (and
// any post-run inspection) is over.
func (k *Kernel) Run() error {
	// h is the queue's head, looked up once per event: every path below
	// that pops or lets events be scheduled refreshes it.
	h, src := k.q.head()
	for !k.stopped {
		// Discard cancelled timers before inspecting the head: they
		// must neither advance the clock nor hide an otherwise-drained
		// queue from deadlock detection or the time limit.
		for h != nil && h.tm != nil && h.tm.cancelled {
			k.q.take(src)
			h, src = k.q.head()
		}
		if h == nil {
			if len(k.conts) > 0 {
				return k.deadlock()
			}
			for p := range k.procs {
				if !p.daemon {
					return k.deadlock()
				}
			}
			return nil
		}
		if k.limit > 0 && h.t > k.limit {
			return nil
		}
		fn := h.fn
		k.now = h.t
		k.q.take(src)
		k.events++
		fn()
		h, src = k.q.head()
		// The rest of the instant drains here, past the checks above:
		// while the clock stands still the limit cannot be crossed, and
		// a cancelled timer is dropped uncounted as it would be there.
		for !k.stopped && h != nil && h.t == k.now {
			fn = h.fn
			live := h.tm == nil || !h.tm.cancelled
			k.q.take(src)
			if live {
				k.events++
				fn()
			}
			h, src = k.q.head()
		}
	}
	return nil
}

// finish retires a process whose body has returned or been unwound,
// re-raising the body's panic, if any, with the process named.
func (k *Kernel) finish(p *Proc) {
	p.state = "finished"
	delete(k.procs, p)
	if p.panicVal != nil {
		panic(fmt.Sprintf("sim: process %q panicked at %v: %v", p.Name(), k.now, p.panicVal))
	}
}

// Shutdown releases the coroutines of every live process — parked,
// not-yet-started, or daemon — by stopping each in spawn order, which
// unwinds a parked body with a poison pill and cancels an unstarted
// one. Call it once a kernel is done (after Run returns, whether
// normally, by Stop/SetLimit, or with a deadlock); sweeps that build
// hundreds of runtimes would otherwise accumulate the parked
// goroutines forever. The kernel must not be used again afterwards.
func (k *Kernel) Shutdown() {
	for c := range k.conts { // continuations hold no goroutines: just drop them
		c.finished = true
	}
	k.conts = nil
	// Deterministic kill order: spawn order.
	victims := make([]*Proc, 0, len(k.procs))
	for p := range k.procs {
		victims = append(victims, p)
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i].seq < victims[j].seq })
	for _, p := range victims {
		p.stop()
		k.finish(p)
	}
	k.q.release()
}

// BlockedProc describes one process left parked at deadlock time: the
// queue, resource or completion it is parked on (State, e.g. "acquire
// node0.cpu", "pop nic2.am", "waiting on rdma-get") and the virtual
// time it parked there — the stall onset, which is what timeout-bug
// triage needs (the deadlock is only detected much later, when the
// event queue finally drains).
type BlockedProc struct {
	Name  string
	State string // what the process is parked on
	Since Time   // virtual time the process parked
}

// DeadlockError reports the set of processes left blocked when the
// event queue drained.
type DeadlockError struct {
	At      Time          // virtual time the stall was detected
	Blocked []string      // legacy "name: state" lines, sorted
	Procs   []BlockedProc // full diagnostics, sorted by (Since, Name)
}

func (e *DeadlockError) Error() string {
	lines := make([]string, 0, len(e.Procs))
	for _, bp := range e.Procs {
		lines = append(lines, fmt.Sprintf("%s: %s (parked since %v)", bp.Name, bp.State, bp.Since))
	}
	if len(lines) == 0 {
		lines = e.Blocked
	}
	return fmt.Sprintf("sim: deadlock at %v; %d blocked processes:\n  %s",
		e.At, len(e.Blocked), strings.Join(lines, "\n  "))
}

func (k *Kernel) deadlock() error {
	var blocked []string
	var procs []BlockedProc
	for p := range k.procs {
		if p.daemon {
			continue
		}
		state, since := p.state, p.since
		if p.awaiting {
			// What the awaited operation is blocked on now, which need
			// not be what it was blocked on when the process parked.
			state, since = p.c.state, p.c.since
		}
		blocked = append(blocked, p.Name()+": "+state)
		procs = append(procs, BlockedProc{Name: p.Name(), State: state, Since: since})
	}
	for c := range k.conts {
		blocked = append(blocked, c.Name()+": "+c.state)
		procs = append(procs, BlockedProc{Name: c.Name(), State: c.state, Since: c.since})
	}
	sort.Strings(blocked)
	sort.Slice(procs, func(i, j int) bool {
		if procs[i].Since != procs[j].Since {
			return procs[i].Since < procs[j].Since
		}
		return procs[i].Name < procs[j].Name
	})
	return &DeadlockError{At: k.now, Blocked: blocked, Procs: procs}
}
