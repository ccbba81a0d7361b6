package sim

// This file adds the continuation execution mode: simulated threads
// that run as state machines of kernel callbacks instead of parked
// coroutines. A Proc pays two coroutine switches (a park and a resume,
// each handing the OS thread straight to the other side — see proc.go)
// every time it blocks, and keeps a stack while it does; a Cont pays
// one closure scheduled on the event heap. At the hundred-thousand-
// thread scales the paper's SVD argument is about, that difference —
// and the per-process stacks — is what bounds the simulator, so the
// hot blocking primitives (Sleep, Completion.Wait,
// Counter.Wait, Resource.Acquire, Queue.Pop) all have continuation
// variants whose kernel event sequences are bit-identical to their
// blocking twins: a run executed in either mode produces the same
// (time, seq) event stream, clock, and statistics.

// waiter is one parked consumer of a Completion, Counter or Queue:
// either a process to resume or a continuation callback to schedule.
// Exactly one field is set. Waking either form costs exactly one
// kernel event, which is what keeps the two execution modes' event
// streams identical.
type waiter struct {
	p  *Proc
	fn func()
}

// wake schedules the waiter to run at the current time.
func (k *Kernel) wake(w waiter) {
	k.schedule(k.now, w.p, w.fn)
}

// Cont is a continuation-mode simulated thread: a chain of callbacks
// scheduled directly on the event heap, with no coroutine and no
// stack behind it. Bodies are written in continuation-passing
// style — each blocking primitive takes the rest of the computation
// as a callback — and must call Finish exactly once when the thread's
// program is complete; a live (unfinished) Cont keeps deadlock
// detection armed exactly like a blocked Proc.
type Cont struct {
	k *Kernel
	lazyName
	seq      uint64
	state    string // diagnostic: what the continuation waits on
	since    Time   // virtual time it last blocked
	finished bool
}

// Kernel returns the kernel the continuation runs under.
func (c *Cont) Kernel() *Kernel { return c.k }

// Now reports the current virtual time.
func (c *Cont) Now() Time { return c.k.now }

// block records what the continuation is about to wait on, for
// deadlock diagnostics (the analogue of Proc.park's state tracking).
func (c *Cont) block(state string) {
	c.state = state
	c.since = c.k.now
}

// unblock marks the continuation runnable again.
func (c *Cont) unblock() { c.state = "running" }

// SpawnC creates a continuation-mode thread named name and schedules
// body to start at the current time — one kernel event, exactly like
// Spawn's start event for a goroutine process. The body runs in
// kernel context: it must not block, and continues the thread by
// passing callbacks to the continuation-aware primitives.
func (k *Kernel) SpawnC(name string, body func(c *Cont)) *Cont {
	return k.spawnC(name, -1, body)
}

// SpawnCIdx is SpawnC with an index-derived name (prefix + idx,
// rendered only when diagnostics ask for it), so mass spawns allocate
// no name strings.
func (k *Kernel) SpawnCIdx(prefix string, idx int, body func(c *Cont)) *Cont {
	return k.spawnC(prefix, idx, body)
}

func (k *Kernel) spawnC(prefix string, idx int, body func(c *Cont)) *Cont {
	k.procSeq++
	c := &Cont{k: k, lazyName: lazyName{prefix, idx, ""}, seq: k.procSeq, state: "starting"}
	if k.conts == nil {
		k.conts = make(map[*Cont]struct{})
	}
	k.conts[c] = struct{}{}
	k.schedule(k.now, nil, func() {
		if c.finished { // Shutdown ran before the start event
			return
		}
		c.state = "running"
		body(c)
	})
	return c
}

// Finish marks the continuation-mode thread complete, releasing it
// from deadlock detection. Must be called exactly once, as the last
// act of the thread's program.
func (c *Cont) Finish() {
	if c.finished {
		panic("sim: continuation " + c.Name() + " finished twice")
	}
	c.finished = true
	delete(c.k.conts, c)
}

// Sleep runs then after d of virtual time — the continuation twin of
// Proc.Sleep: one kernel event for positive d, an inline continue
// otherwise. then is scheduled directly (no unblock wrapper is
// allocated); the state string goes stale — still "sleeping" — while
// then runs, which is fine because diagnostics only ever inspect
// blocked continuations.
func (c *Cont) Sleep(d Duration, then func()) {
	if d <= 0 {
		then()
		return
	}
	c.block("sleeping")
	c.k.schedule(c.k.now+d, nil, then)
}

// Loop drives an asynchronous loop without growing the stack: step is
// called once per iteration and either calls next() — possibly
// synchronously, possibly from a later kernel event — to run the next
// iteration, or ends the loop by not calling it (typically invoking
// its own completion callback instead). Synchronous next() calls are
// flattened into an iterative drive loop, so a million non-blocking
// iterations (skipping non-owned indices in an init sweep, say) use
// constant stack.
func Loop(step func(next func())) {
	inBody := false
	resumed := false
	var drive func()
	next := func() {
		if inBody {
			resumed = true
			return
		}
		drive()
	}
	drive = func() {
		for {
			inBody = true
			resumed = false
			step(next)
			inBody = false
			if !resumed {
				return
			}
		}
	}
	drive()
}
