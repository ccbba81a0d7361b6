package sim

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"xlupc/internal/pool"
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
// at time t. There is no other kind — starting a process is the callback
// it bound at spawn (Proc.resumeFn), and waking one is its companion
// Cont's resume, filed like any other.
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
type Timer struct{ cancelled, queued bool }

// Queued reports whether the timer's event is still in the kernel's
// queue: armed and not yet run, or cancelled and not yet discarded. The
// owner of a Timer re-armed through ArmTimer may arm or recycle it only
// once this is false.
func (t *Timer) Queued() bool { return t.queued }

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
// NewKernel, spawn processes with Spawn or continuation-mode threads
// with SpawnC, then call Run.
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
	events  int64 // events processed by Run (host-profiling figure)

	cpool      pool.Free[Completion] // recycled completions (see Recycle)
	waitStates map[string]string     // completion name -> its wait diagnostic
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
// instant already holds: a parked waiter, a spawn's start.
func (k *Kernel) wake(fn func()) { k.schedule(k.now, fn) }

// At schedules fn to run in kernel context at absolute time t.
// fn must not block (no Proc.Sleep or Await); it may schedule further
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
	tm := &Timer{}
	k.ArmTimer(tm, d, fn)
	return tm
}

// ArmTimer is AfterTimer on a Timer the caller owns — embedded in a
// pooled record, so arming allocates nothing. tm must not be Queued: a
// queued event still refers to it, cancelled or not.
func (k *Kernel) ArmTimer(tm *Timer, d Duration, fn func()) {
	t := k.now + d
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling into the past: %v < now %v", t, k.now))
	}
	if tm.queued {
		panic("sim: ArmTimer on a timer whose event is still queued")
	}
	*tm = Timer{queued: true}
	k.seq++
	k.q.push(k.now, t, k.seq, fn, tm)
}

// Spawn creates a new process named name executing body and schedules
// it to start at the current time. It may be called before Run or from
// any process or callback during the run.
func (k *Kernel) Spawn(name string, body func(p *Proc)) *Proc {
	return k.spawn(lazyName{name, -1, ""}, body)
}

// SpawnIdx is Spawn with an index-derived name (prefix + idx, rendered
// only when diagnostics ask for it), so spawning 128k threads performs
// no name formatting or string allocation.
func (k *Kernel) SpawnIdx(prefix string, idx int, body func(p *Proc)) *Proc {
	return k.spawn(lazyName{prefix, idx, ""}, body)
}

func (k *Kernel) spawn(name lazyName, body func(p *Proc)) *Proc {
	k.procSeq++
	p := &Proc{
		k:        k,
		lazyName: name,
		seq:      k.procSeq,
	}
	p.c = Cont{k: k, lazyName: name, state: "running"}
	k.procs[p] = struct{}{}
	p.start(body)
	k.wake(p.resumeFn)
	return p
}

// Run executes events until the event queue drains or Stop is called.
// It returns a DeadlockError if live processes remain blocked with no
// pending events, which usually indicates a protocol bug (a completion
// never completed).
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
		// queue from deadlock detection.
		for h != nil && h.tm != nil && h.tm.cancelled {
			h.tm.queued = false
			k.q.take(src)
			h, src = k.q.head()
		}
		if h == nil {
			if len(k.procs) > 0 || len(k.conts) > 0 {
				return k.deadlock()
			}
			return nil
		}
		fn, tm := h.fn, h.tm
		k.now = h.t
		k.q.take(src)
		if tm != nil {
			tm.queued = false
		}
		k.events++
		fn()
		h, src = k.q.head()
		// The rest of the instant drains here, past the checks above: a
		// cancelled timer is dropped uncounted as it would be there.
		for !k.stopped && h != nil && h.t == k.now {
			fn, tm = h.fn, h.tm
			live := tm == nil || !tm.cancelled
			k.q.take(src)
			if tm != nil {
				tm.queued = false
			}
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
	delete(k.procs, p)
	if p.panicVal != nil {
		panic(fmt.Sprintf("sim: process %q panicked at %v: %v", p.Name(), k.now, p.panicVal))
	}
}

// Shutdown releases the coroutines of every live process — parked or
// not yet started — by stopping each in spawn order, which
// unwinds a parked body with a poison pill and cancels an unstarted
// one. Call it once a kernel is done (after Run returns, whether
// normally, by Stop, or with a deadlock); sweeps that build
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
	At    Time          // virtual time the stall was detected
	Procs []BlockedProc // sorted by (Since, Name)
}

func (e *DeadlockError) Error() string {
	lines := make([]string, 0, len(e.Procs))
	for _, bp := range e.Procs {
		lines = append(lines, fmt.Sprintf("%s: %s (parked since %v)", bp.Name, bp.State, bp.Since))
	}
	return fmt.Sprintf("sim: deadlock at %v; %d blocked processes:\n  %s",
		e.At, len(e.Procs), strings.Join(lines, "\n  "))
}

func (k *Kernel) deadlock() error {
	var procs []BlockedProc
	for p := range k.procs {
		// What the awaited operation is blocked on now, which need not
		// be what it was blocked on when the process parked.
		procs = append(procs, BlockedProc{Name: p.Name(), State: p.c.state, Since: p.c.since})
	}
	for c := range k.conts {
		procs = append(procs, BlockedProc{Name: c.Name(), State: c.state, Since: c.since})
	}
	sort.Slice(procs, func(i, j int) bool {
		if procs[i].Since != procs[j].Since {
			return procs[i].Since < procs[j].Since
		}
		return procs[i].Name < procs[j].Name
	})
	return &DeadlockError{At: k.now, Procs: procs}
}
