package sim

// This file holds the continuation side of the engine: simulated
// threads that run as state machines of kernel callbacks instead of
// parked coroutines. A Proc pays two coroutine switches (a park and a
// resume, each handing the OS thread straight to the other side — see
// proc.go) every time it blocks, and keeps a stack while it does; a
// Cont pays one callback on the event queue. At the hundred-thousand-
// thread scales the paper's SVD argument is about, that difference —
// and the per-process stacks — is what bounds the simulator.
//
// The kernel knows one kind of event and the primitives one kind of
// waiter: a func(). Every wait is a continuation form — Cont.Sleep,
// Completion.WaitFn, Counter.WaitFn, Resource.AcquireCont and
// Queue.WaitFn — that files the waiter's next step, so each has one wake
// path, and a run produces the same (time, seq) event stream, clock and
// statistics whichever way its threads are written. Layers above build
// each operation once, as a ladder of steps on a Cont. A process reaches
// it through its companion Cont: it parks in Await, naming the
// operation's start, and the kernel starts the ladder on the Cont with
// the process's wake beneath it (Proc.Cont, Proc.Await). The service
// engines that serve a node's queues, and the odd one-off job such as a
// retried PUT, are Conts too (SpawnService).

// Stepper is something whose asynchronous steps are numbered: Step(pc)
// runs step pc. A state machine that parks (s, pc) on a Cont with Then
// gets a continuation without building a closure per step.
type Stepper interface{ Step(pc int) }

// Func makes a plain callback a Stepper (its one step is to run), so
// that a caller's then can be parked like any other continuation.
type Func func()

func (f Func) Step(int) { f() }

// frame is one parked continuation: step pc of s.
type frame struct {
	s  Stepper
	pc int
}

// maxFrames bounds how deep one thread's pending continuations nest.
// The deepest ladder is nine: a process's wake, the caller's callback,
// then allocation → barrier → fence → sync → retire → fallback GET →
// AM send.
const maxFrames = 12

// Cont is a continuation-mode simulated thread: a chain of callbacks
// scheduled directly on the event heap, with no coroutine and no
// stack behind it. Bodies are written in continuation-passing
// style — each blocking primitive takes the rest of the computation
// as a callback — and must call Finish exactly once when the thread's
// program is complete; a live (unfinished) Cont keeps deadlock
// detection armed exactly like a blocked Proc.
//
// A Cont also carries the one thing a sequential thread needs in place
// of a stack: the frames of the continuations it has pending, innermost
// last (see Then). Every Proc has a companion Cont (Proc.Cont), which
// is what lets a process Await the continuation form of an operation.
type Cont struct {
	// Every wait of every thread touches state, since, sp and the
	// innermost frames, and at scale no two consecutive events belong
	// to the same thread: these sit together so that a wait costs one
	// cache line of the Cont, not three.
	k        *Kernel
	resumeFn func() // bound on first use, handed out by every Then
	state    string // diagnostic: what the continuation waits on
	since    Time   // virtual time it last blocked
	sp       int32
	running  bool // a step is executing: a nested resume is left to its loop
	again    bool // ... and this tells the loop there is one
	finished bool
	frames   [maxFrames]frame

	at         Time // argument of the pending ThenAt continuation
	resumeAtFn func(Time)
	lazyName
}

// Then parks step pc of s as the thread's innermost pending
// continuation and returns the func that runs it. The func is the same
// value every time — it runs whichever frame is innermost — so frames
// must complete in LIFO order, each exactly once; a sequential thread's
// continuations do by construction (an operation finishes everything
// it started before it continues its caller). Nothing is allocated.
func (c *Cont) Then(s Stepper, pc int) func() {
	c.Park(s, pc)
	return c.Resumer()
}

// Park is Then without the func: for a ladder about to start a nested
// one, which will find the frame when it Resumes.
func (c *Cont) Park(s Stepper, pc int) {
	if c.sp == maxFrames {
		panic("sim: continuation " + c.Name() + " nests deeper than maxFrames")
	}
	c.frames[c.sp] = frame{s, pc}
	c.sp++
}

// Resumer returns Resume as a func value — the one Then returns — for a
// ladder whose last act is a wait: handed to the primitive it waits in,
// it continues the ladder's caller directly.
func (c *Cont) Resumer() func() {
	if c.resumeFn == nil {
		c.resumeFn = c.Resume
	}
	return c.resumeFn
}

// ThenAt is Then for continuations that receive a time (an injection's
// arrival time): the step reads it back with At.
func (c *Cont) ThenAt(s Stepper, pc int) func(Time) {
	c.Park(s, pc)
	if c.resumeAtFn == nil {
		c.resumeAtFn = func(t Time) {
			c.at = t
			c.Resume()
		}
	}
	return c.resumeAtFn
}

// At returns the time passed to the continuation parked with ThenAt.
func (c *Cont) At() Time { return c.at }

// Resume runs the innermost frame: how a ladder of steps returns to
// whatever was parked beneath it. A step that completes synchronously
// resumes its caller from inside its own execution; like Loop, Resume
// turns that recursion into iteration: the nested call only flags, and
// the outer loop runs the frame once the current step has returned —
// which, the continuation call being the step's last act, is the same
// order. This is also what keeps a process woken from inside a step
// correct: the rest of its program runs on its coroutine while that
// step is still on the kernel's stack, and the next operation it
// starts is picked up here when it parks.
func (c *Cont) Resume() {
	if c.running {
		c.again = true
		return
	}
	c.running = true
	for {
		c.again = false
		c.sp--
		f := &c.frames[c.sp]
		f.s.Step(f.pc)
		if !c.again {
			break
		}
	}
	c.running = false
}

// block records what the continuation is about to wait on, for
// deadlock diagnostics: a process's report is its companion's.
func (c *Cont) block(state string) {
	c.state = state
	c.since = c.k.now
}

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
	c := &Cont{k: k, lazyName: lazyName{prefix, idx, ""}, state: "starting"}
	if k.conts == nil {
		k.conts = make(map[*Cont]struct{})
	}
	k.conts[c] = struct{}{}
	k.wake(func() {
		if c.finished { // Shutdown ran before the start event
			return
		}
		c.state = "running"
		body(c)
	})
	return c
}

// SpawnService starts a service engine: a state machine of callbacks
// that serves a queue for the rest of the run, or does one job beside
// the threads. Step pc of s runs first, on the returned continuation, as
// one event at the current time — where spawn schedules a process's
// start.
// The continuation never enters the live set: it neither keeps Run
// alive nor shows in a deadlock report, and it need not finish. Its
// name is prefix + idx + suffix, rendered on demand.
func (k *Kernel) SpawnService(prefix string, idx int, suffix string, s Stepper, pc int) *Cont {
	c := &Cont{k: k, lazyName: lazyName{prefix, idx, suffix}, state: "starting"}
	k.wake(c.Then(s, pc))
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

// Sleep runs then after d of virtual time: one kernel event for
// positive d, an inline continue otherwise. then is
// scheduled directly; the state string goes stale — still "sleeping" —
// while then runs, which is fine because diagnostics only ever inspect
// blocked continuations.
func (c *Cont) Sleep(d Duration, then func()) {
	if d <= 0 {
		then()
		return
	}
	c.block("sleeping")
	c.k.schedule(c.k.now+d, then)
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
