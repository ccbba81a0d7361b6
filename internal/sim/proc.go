//go:build go1.23

package sim

import "iter"

// Proc is a simulated process: a coroutine of the kernel's event loop.
// Run resumes it with next, the body hands control back with yield,
// and each switch passes the OS thread directly to the other side —
// no run queue, no channel, no second thread — so exactly one of
// kernel and process is ever running. A Proc's methods may only be
// called from its own body.
type Proc struct {
	k *Kernel
	lazyName
	seq    uint64 // spawn order; fixes Shutdown's kill order
	state  string // diagnostic: what the process is blocked on
	since  Time   // virtual time the process last parked
	daemon bool   // service loop; ignored by deadlock detection

	next     func() (struct{}, bool) // resume the body; false once it has returned
	yield    func(struct{}) bool     // park the body; false once Shutdown stopped it
	stop     func()                  // unwind a parked body, or cancel an unstarted one
	panicVal any                     // the body's panic, re-raised by the kernel
}

// poisonPill unwinds the body of a process stopped by Shutdown; start
// recognises it and ends the coroutine without reporting a panic.
type poisonPill struct{}

// start backs p with a coroutine that will run body at the first next.
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
}

// Kernel returns the kernel the process runs under.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now reports the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// park hands control back to the kernel and blocks until resumed.
// Once Shutdown has stopped the process every park — the one it was
// blocked in and any a deferred function attempts while unwinding —
// panics with the poison pill instead of returning.
func (p *Proc) park(state string) {
	p.state = state
	p.since = p.k.now
	if !p.yield(struct{}{}) {
		panic(poisonPill{})
	}
}

// Sleep advances the process's virtual time by d (holding nothing).
// A non-positive d returns immediately without yielding.
func (p *Proc) Sleep(d Duration) {
	if d <= 0 {
		return
	}
	p.k.schedule(p.k.now+d, p, nil)
	p.park("sleeping")
}

// SleepUntil blocks the process until absolute time t.
func (p *Proc) SleepUntil(t Time) {
	if t <= p.k.now {
		return
	}
	p.k.schedule(t, p, nil)
	p.park("sleeping")
}

// Wait blocks the process until c is completed. If c is already
// complete it returns immediately without yielding.
func (p *Proc) Wait(c *Completion) {
	if c.done {
		return
	}
	c.waiters = append(c.waiters, waiter{p: p})
	p.park(c.parkState())
}

// WaitAll blocks until every completion in cs is complete.
func (p *Proc) WaitAll(cs ...*Completion) {
	for _, c := range cs {
		p.Wait(c)
	}
}

// Yield reschedules the process at the current time, letting any other
// events already queued for this instant run first.
func (p *Proc) Yield() {
	p.k.schedule(p.k.now, p, nil)
	p.park("yielding")
}
