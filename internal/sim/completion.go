package sim

import "fmt"

// Completion is a one-shot future: threads wait on it (WaitFn), and some
// other thread or kernel callback Completes it, waking all waiters at
// the current virtual time. A Completion may carry an arbitrary value.
type Completion struct {
	k       *Kernel
	name    string
	done    bool
	at      Time
	val     any
	bytes   []byte      // typed payload lane (CompleteBytes); unboxed []byte
	waiters []func()    // parked consumers, in registration order
	then    func(v any) // the one Then callback, if registered

	ws    string // memoized park diagnostic ("waiting on <name>")
	wsFor string // name ws was built for; survives Recycle, so pooled
	// completions cycling through the same constant names never
	// rebuild the string
}

// NewCompletion returns an incomplete Completion. The name appears in
// deadlock diagnostics. Completions recycled with Kernel.Recycle are
// reused here, so hot protocol paths do not allocate one per
// operation.
func NewCompletion(k *Kernel, name string) *Completion {
	c := k.cpool.Get()
	c.k, c.name, c.done, c.at, c.val, c.bytes = k, name, false, 0, nil, nil
	return c
}

// parkState renders the wait diagnostic lazily: nothing allocates until
// something actually blocks on the completion, and the result is
// memoized per name so pooled completions reused under the same
// constant name pay a pointer-equal string compare, not a concat — and
// one reused under another name looks the string up in the kernel's
// table instead of building it again.
func (c *Completion) parkState() string {
	if c.wsFor != c.name {
		c.ws = c.k.waitState(c.name)
		c.wsFor = c.name
	}
	return c.ws
}

// waitState returns "waiting on "+name, built once per name per kernel.
func (k *Kernel) waitState(name string) string {
	s, ok := k.waitStates[name]
	if !ok {
		if k.waitStates == nil {
			k.waitStates = make(map[string]string)
		}
		s = "waiting on " + name
		k.waitStates[name] = s
	}
	return s
}

// Recycle returns a spent completion to the kernel's pool for reuse by
// a future NewCompletion. The caller must guarantee the completion is
// done and no other reference to it remains (no pending WaitFn, Then, or
// in-flight message carrying it); recycling a live completion corrupts
// the simulation. Purely an allocation optimization — never required.
func (k *Kernel) Recycle(c *Completion) {
	c.val = nil
	c.bytes = nil
	c.waiters = c.waiters[:0]
	c.then = nil
	k.cpool.Put(c)
}

// Done reports whether the completion has completed.
func (c *Completion) Done() bool { return c.done }

// Value returns the value passed to Complete, or nil if incomplete or
// completed with no value (including via CompleteBytes).
func (c *Completion) Value() any { return c.val }

// Bytes returns the payload passed to CompleteBytes, or nil.
func (c *Completion) Bytes() []byte { return c.bytes }

// CompleteBytes is Complete for a []byte payload, carried in a typed
// lane instead of the any-valued one: completing a hot data-bearing
// operation does not box the slice header per op. Value() stays nil;
// consumers read Bytes(). Waiters, Thens and event behavior are
// identical to Complete(nil).
func (c *Completion) CompleteBytes(data []byte) {
	c.bytes = data
	c.Complete(nil)
}

// CompletedAt returns the virtual time of completion (valid once Done).
func (c *Completion) CompletedAt() Time { return c.at }

// Complete marks the completion done with value v, schedules every
// waiter to resume at the current time, and runs registered Then
// callbacks inline, in the caller's (kernel) context at completion
// time — no event is scheduled per callback. Completing twice is a bug
// and panics.
func (c *Completion) Complete(v any) {
	c.k.cpool.Live(c)
	if c.done {
		panic(fmt.Sprintf("sim: completion %q completed twice", c.name))
	}
	c.done = true
	c.val = v
	c.at = c.k.now
	for _, w := range c.waiters {
		c.k.wake(w)
	}
	c.waiters = c.waiters[:0]
	if fn := c.then; fn != nil {
		// Cleared before the call: the callback may recycle c, and a
		// new owner may register its own Then before this returns.
		c.then = nil
		fn(v)
	}
}

// WaitFn blocks a continuation-mode thread until the completion
// completes, then runs fn: an already-done completion continues inline
// (zero events), otherwise fn joins the waiter list and the wake is one
// scheduled event. fn is stored as the waiter directly — no wrapper
// closure — so a state machine whose step func exists already waits
// without allocating. fn reads the completed value via Value itself,
// and the continuation's diagnostic state is not reset when it runs
// (stale state on a running continuation is harmless; diagnostics only
// inspect blocked ones).
func (c *Completion) WaitFn(ct *Cont, fn func()) {
	c.k.cpool.Live(c)
	if c.done {
		fn()
		return
	}
	ct.block(c.parkState())
	c.waiters = append(c.waiters, fn)
}

// Then registers fn to run once the completion completes. fn executes
// in kernel context at completion time, inline from Complete (or
// immediately, if the completion is already done): it must not block
// (no Proc.Sleep or Await), but may schedule events, complete other
// completions, and push to queues. A completion has one such consumer,
// held without a list, so registering it allocates nothing; a second
// Then before Complete panics.
//
// Then is NOT the way a continuation-mode thread waits — Then runs
// inline at Complete time while a waiter (WaitFn) runs one
// scheduled event later; mixing them up reorders the event stream
// between execution modes. Use WaitFn to block a Cont.
func (c *Completion) Then(fn func(v any)) {
	if c.done {
		fn(c.val)
		return
	}
	if c.then != nil {
		panic(fmt.Sprintf("sim: completion %q has a Then already", c.name))
	}
	c.then = fn
}

// CompleteAfter schedules the completion to complete with value v after
// delay d.
func (c *Completion) CompleteAfter(d Duration, v any) {
	c.k.After(d, func() { c.Complete(v) })
}

// Counter is a countdown latch over n sub-events: Arrive is called n
// times, and waiters proceed when the count reaches zero. It is used
// for fence semantics (wait for all outstanding PUT acknowledgements).
type Counter struct {
	k *Kernel
	lazyName
	ws      string // memoized park diagnostic, built on first wait
	pending int
	waiters []func()
}

// NewCounter returns a counter expecting n arrivals. n may be zero, in
// which case WaitFn continues inline.
func NewCounter(k *Kernel, name string, n int) *Counter {
	return &Counter{k: k, lazyName: lazyName{name, -1, ""}, pending: n}
}

// NewCounters returns n counters expecting no arrivals, named prefix +
// their index, in one allocation — a fence counter per thread at 128k
// threads is one object, not 128k.
func NewCounters(k *Kernel, prefix string, n int) []Counter {
	cs := make([]Counter, n)
	for i := range cs {
		cs[i] = Counter{k: k, lazyName: lazyName{prefix, i, ""}}
	}
	return cs
}

func (c *Counter) parkState() string {
	if c.ws == "" {
		c.ws = "waiting on counter " + c.Name()
	}
	return c.ws
}

// Add registers n more expected arrivals.
func (c *Counter) Add(n int) { c.pending += n }

// Pending reports the number of outstanding arrivals.
func (c *Counter) Pending() int { return c.pending }

// Arrive records one arrival, waking waiters if the count hits zero.
func (c *Counter) Arrive() {
	if c.pending <= 0 {
		panic(fmt.Sprintf("sim: counter %q arrived below zero", c.Name()))
	}
	c.pending--
	if c.pending == 0 {
		for _, w := range c.waiters {
			c.k.wake(w)
		}
		c.waiters = c.waiters[:0]
	}
}

// WaitFn blocks a continuation-mode thread until the counter reaches
// zero, then runs fn: inline at zero, one wake event otherwise. fn is
// the waiter itself, so nothing re-checks the count when it runs. That
// suits every counter whose arrivals are all registered before anyone
// waits or only by the waiting thread itself (a fence: a thread blocked
// in it issues nothing); fn must re-check Pending and wait again where
// that is not so.
func (c *Counter) WaitFn(ct *Cont, fn func()) {
	if c.pending == 0 {
		fn()
		return
	}
	ct.block(c.parkState())
	c.waiters = append(c.waiters, fn)
}
