package sim

// Queue is an unbounded FIFO mailbox connecting producers (processes
// or kernel callbacks) to consumers. It is the delivery point for
// simulated network messages: the fabric schedules a Push at a
// message's arrival time, and a consumer takes it off: a process with
// Pop, or a callback engine with TryPop, waiting between items in the
// same waiter list (WaitFn — the AM dispatcher contexts) or reacting to
// every Push (Notify — the DMA engine).
type Queue[T any] struct {
	k *Kernel
	lazyName
	ws      string // memoized park diagnostic, built on first blocked pop
	items   []T    // live window is items[head:]
	head    int
	waiters []func() // consumers waiting in Pop or WaitFn
	notify  func()   // callback consumer hook, invoked after each Push
	pushes  int64
	maxLen  int
}

// NewQueue returns an empty queue. The name appears in deadlock
// diagnostics.
func NewQueue[T any](k *Kernel, name string) *Queue[T] {
	return NewQueueIdx[T](k, name, -1, "")
}

// NewQueueIdx is NewQueue with an index-derived name (prefix + idx +
// suffix, rendered only when diagnostics ask for it).
func NewQueueIdx[T any](k *Kernel, prefix string, idx int, suffix string) *Queue[T] {
	return &Queue[T]{k: k, lazyName: lazyName{prefix, idx, suffix}}
}

func (q *Queue[T]) popState() string {
	if q.ws == "" {
		q.ws = "pop " + q.Name()
	}
	return q.ws
}

// Len reports the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) - q.head }

// Pushes reports the total number of items ever pushed.
func (q *Queue[T]) Pushes() int64 { return q.pushes }

// MaxLen reports the high-water mark of the queue length.
func (q *Queue[T]) MaxLen() int { return q.maxLen }

// Notify registers fn to run (in kernel context, inline) after every
// Push. It is the handoff-free consumer path: a callback engine reacts
// to fn by draining the queue with TryPop, leaving any backlog queued
// — so Len/MaxLen keep measuring real residency — without a parked
// process per queue. fn must not block.
func (q *Queue[T]) Notify(fn func()) { q.notify = fn }

// Push appends v and wakes one waiting consumer, if any. It never
// blocks and is safe to call from kernel callbacks.
func (q *Queue[T]) Push(v T) {
	q.items = append(q.items, v)
	q.pushes++
	if n := q.Len(); n > q.maxLen {
		q.maxLen = n
	}
	if len(q.waiters) > 0 {
		w := q.waiters[0]
		n := copy(q.waiters, q.waiters[1:])
		q.waiters[n] = nil // release for GC
		q.waiters = q.waiters[:n]
		q.k.wake(w)
	}
	if q.notify != nil {
		q.notify()
	}
}

// take removes and returns the oldest item; the queue must be
// non-empty. The backing array is reused once the window drains.
func (q *Queue[T]) take() T {
	v := q.items[q.head]
	var zero T
	q.items[q.head] = zero // release for GC
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	} else if q.head > 64 && q.head*2 >= len(q.items) {
		// Compact a long-lived window so a never-empty queue does not
		// grow its backing array without bound.
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items = q.items[:n]
		q.head = 0
	}
	return v
}

// Pop removes and returns the oldest item, blocking p until one is
// available.
func (q *Queue[T]) Pop(p *Proc) T {
	for q.Len() == 0 {
		q.waiters = append(q.waiters, p.resumer())
		p.park(q.popState())
	}
	return q.take()
}

// WaitFn blocks a continuation until the queue holds an item, then runs
// fn: inline if it holds one now, otherwise fn joins the waiter list —
// where Pop files a parked process's resume func, so one Push wakes
// callback and process consumers alike in arrival order — and the wake
// is one scheduled event. fn must TryPop, and wait again when that
// fails: a consumer that was already running may have taken the item
// first, exactly as a process woken in Pop finds the queue empty and
// parks again.
func (q *Queue[T]) WaitFn(ct *Cont, fn func()) {
	if q.Len() > 0 {
		fn()
		return
	}
	ct.block(q.popState())
	q.waiters = append(q.waiters, fn)
}

// TryPop removes and returns the oldest item without blocking.
func (q *Queue[T]) TryPop() (v T, ok bool) {
	if q.Len() == 0 {
		return v, false
	}
	return q.take(), true
}
