//go:build go1.23

package sim

import "iter"

// Proc is a simulated process: a coroutine of the kernel's event loop.
// resumeFn continues it with next, the body hands control back with
// yield, and each switch passes the OS thread directly to the other
// side — no run queue, no channel, no second thread — so exactly one of
// kernel and process is ever running. The coroutine runs only the
// body's own code. A process waits in one way only: Await parks it
// with the operation to start, and resumeFn, back on the kernel's
// stack, starts that operation in continuation form on the companion
// Cont, with the wake beneath it; the wake continues the body. To the
// kernel a process is just its resumeFn, filed as its start event and
// run by the wake. A Proc's methods may only be called from its own
// body.
type Proc struct {
	// What a park and a resume touch comes first, next to the hot head
	// of c (see Cont).
	k        *Kernel
	resumeFn func()                  // run the body until it parks or returns; bound once, by start
	next     func() (struct{}, bool) // resume the body; false once it has returned
	yield    func(struct{}) bool     // park the body; false once Shutdown stopped it
	op       frame                   // the start of the operation the body parked in Await for
	starting bool                    // resumeFn is running op's start
	woken    bool                    // ... and the operation completed inside it

	// c is the process's companion continuation: the Cont an awaited
	// operation runs on. It is never in the kernel's live set — the
	// process is — and only lends the operation its frames and its
	// diagnostic state, which is therefore what a deadlock report says
	// the process is blocked on.
	c Cont

	lazyName
	seq      uint64   // spawn order; fixes Shutdown's kill order
	stop     func()   // unwind a parked body, or cancel an unstarted one
	panicVal any      // the body's or a start's panic, re-raised by the kernel
	d        Duration // Sleep's duration, staged for its start
}

// poisonPill unwinds the body of a process stopped by Shutdown; start
// recognises it and ends the coroutine without reporting a panic.
type poisonPill struct{}

// start backs p with a coroutine that will run body at the first
// resume, and binds the resume func: run the body until it next parks,
// then start the operation it parked for; an operation that completes
// inside its start continues the body at once — this loop, not a
// nested resume — and the process is retired once the body returns. A
// literal, not a method value: one frame less to return through after a
// coroutine switch.
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
		for {
			if _, parked := p.next(); !parked {
				p.k.finish(p)
				return
			}
			if !p.begin() {
				return
			}
		}
	}
}

// begin runs the start of the operation the body parked for, on the
// kernel's stack, and reports whether the operation completed inside
// it. A panic in the start is the process's: its parked body is
// unwound and the panic re-raised with the process named, as if the
// body had panicked.
func (p *Proc) begin() (woken bool) {
	op := p.op
	p.op = frame{}
	p.starting = true
	defer p.recoverStart()
	op.s.Step(op.pc)
	p.starting = false
	woken, p.woken = p.woken, false
	return woken
}

func (p *Proc) recoverStart() {
	if r := recover(); r != nil {
		p.panicVal = r
		p.stop()
		p.k.finish(p)
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
// companion Cont's Sleep, awaited. A non-positive d completes inside
// its start, so the body continues at once, before any other event.
func (p *Proc) Sleep(d Duration) {
	p.blocking()
	p.d = d
	p.Await(p, pcSleep)
}

// Cont returns the process's companion continuation, the one an
// awaited operation runs on.
func (p *Proc) Cont() *Cont {
	p.blocking()
	return &p.c
}

// Await blocks the process while the kernel runs step pc of s: the
// start of an operation in continuation form on the companion Cont,
// whose last act is to Resume it. Await parks the process's wake as the
// Cont's innermost frame and yields; resumeFn then runs the start on
// the kernel's stack, at the same instant and before any other event,
// so every event the operation schedules keeps its (time, seq). The
// wake continues the body inline, from inside whichever kernel callback
// completed the operation, at the position where a continuation-mode
// thread would have run its then: the blocking call costs exactly the
// events of its continuation form. One that completes inside its start
// costs one switch pair and no event. Once Shutdown has stopped the
// process every park — the one it was blocked in and any a deferred
// function attempts while unwinding — panics with the poison pill
// instead of returning.
func (p *Proc) Await(s Stepper, pc int) {
	p.blocking()
	p.c.Park(p, pcWake)
	p.op = frame{s, pc}
	if !p.yield(struct{}{}) {
		panic(poisonPill{})
	}
}

// A Proc's steps: the wake Await parks, and Sleep's start.
const (
	pcWake = iota
	pcSleep
)

// Step runs step pc of the process (Stepper).
func (p *Proc) Step(pc int) {
	switch {
	case pc == pcSleep:
		p.c.Sleep(p.d, p.c.Resumer())
	case p.starting:
		if p.woken {
			panic("sim: process " + p.Name() + " woken twice")
		}
		p.woken = true // begin's caller continues the body
	default:
		p.resumeFn()
	}
}
