//go:build go1.23

package sim

import "iter"

// Proc is a simulated process: a coroutine of the kernel's event loop.
// resumeFn continues it with next, the body hands control back with
// yield, and each switch passes the OS thread directly to the other
// side — no run queue, no channel, no second thread — so exactly one of
// kernel and process is ever running. A process waits in one way only:
// it starts an operation in continuation form on its companion Cont,
// with Wake as the then, and parks in Await until that runs. To the
// kernel it is just its resumeFn, filed as its start event and run by
// the wake. A Proc's methods may only be called from its own body.
type Proc struct {
	// What a park and a resume touch comes first, next to the hot head
	// of c (see Cont).
	k        *Kernel
	resumeFn func()                  // run the body until it parks or returns; bound once, by start
	next     func() (struct{}, bool) // resume the body; false once it has returned
	yield    func(struct{}) bool     // park the body; false once Shutdown stopped it
	awaiting bool                    // parked in Await
	woken    bool                    // the awaited operation completed before Await was reached

	// c is the process's companion continuation: what it passes to the
	// continuation form of an operation it then Awaits. It is never in
	// the kernel's live set — the process is — and only lends the
	// operation its frames and its diagnostic state, which is therefore
	// what a deadlock report says the process is blocked on.
	c Cont

	lazyName
	seq      uint64 // spawn order; fixes Shutdown's kill order
	stop     func() // unwind a parked body, or cancel an unstarted one
	panicVal any    // the body's panic, re-raised by the kernel
}

// poisonPill unwinds the body of a process stopped by Shutdown; start
// recognises it and ends the coroutine without reporting a panic.
type poisonPill struct{}

// start backs p with a coroutine that will run body at the first
// resume, and binds the resume func: run the body until it next parks,
// retire the process if it returned instead. A literal, not a method
// value: one frame less to return through after a coroutine switch.
func (p *Proc) start(body func(p *Proc)) {
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			if r := recover(); r != nil {
				if _, poisoned := r.(poisonPill); !poisoned {
					p.panicVal = r
				}
			}
		}()
		body(p)
	})
	p.resumeFn = func() {
		if _, parked := p.next(); !parked {
			p.k.finish(p)
		}
	}
}

// Kernel returns the kernel the process runs under.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now reports the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// blocking panics when p is nil: a thread that runs as a bare Cont has
// no process, and a blocking call made on it would otherwise die on a
// nil dereference that names neither the call nor the remedy.
func (p *Proc) blocking() {
	if p == nil {
		panic("sim: blocking call on a continuation-mode thread: use the ...C form")
	}
}

// Sleep advances the process's virtual time by d (holding nothing): the
// companion Cont's Sleep, awaited. A non-positive d returns immediately
// without yielding.
func (p *Proc) Sleep(d Duration) {
	wake := p.Wake()
	p.c.Sleep(d, wake)
	p.Await()
}

// Cont returns the process's companion continuation, to be passed to
// the continuation form of an operation the process will Await.
func (p *Proc) Cont() *Cont {
	p.blocking()
	return &p.c
}

// Wake returns the completion callback for the operation the process
// is about to Await: a continuation form is called with Wake() as its
// then, and Await returns once that has run. Like any Then it is the
// Cont's one resume func, so it allocates nothing per operation.
func (p *Proc) Wake() func() {
	p.blocking()
	return p.c.Then(p, 0)
}

// ParkWake is Wake for an operation started as a ladder of steps on the
// process's Cont rather than through a then: the wake is the frame the
// ladder finds beneath it when it Resumes.
func (p *Proc) ParkWake() {
	p.blocking()
	p.c.Park(p, 0)
}

// Await blocks the process until the operation started with Wake has
// completed. If it completed synchronously — Wake's func already ran —
// Await returns at once: no park, no event. Otherwise the process
// parks here, handing control back to the kernel, and is resumed inline
// from the kernel callback that completes the operation, at the (time,
// seq) position where a continuation-mode thread would have run its
// callback: the blocking call costs exactly the events of its
// continuation form. Once Shutdown has stopped the process every park —
// the one it was blocked in and any a deferred function attempts while
// unwinding — panics with the poison pill instead of returning.
func (p *Proc) Await() {
	p.blocking()
	if p.woken {
		p.woken = false
		return
	}
	p.awaiting = true
	if !p.yield(struct{}{}) {
		panic(poisonPill{})
	}
}

// Step is the wake: the one step a Proc has (see Wake).
func (p *Proc) Step(int) {
	if !p.awaiting {
		if p.woken {
			panic("sim: process " + p.Name() + " woken twice")
		}
		p.woken = true
		return
	}
	p.awaiting = false
	p.resumeFn()
}
