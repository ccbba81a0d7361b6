package sim

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Life-cycle of the coroutine behind a Proc: every way a body can end
// (return, panic, Goexit, Shutdown before its start event, Shutdown
// while parked) must hand control back to the kernel's caller and
// leave no goroutine behind.

// A process whose start event never ran is cancelled by Shutdown
// without its body ever executing.
func TestShutdownBeforeStartEvent(t *testing.T) {
	baseline := runtime.NumGoroutine()
	k := NewKernel()
	k.Spawn("stopper", func(p *Proc) {
		k.Spawn("late", func(p *Proc) { t.Error("body of a never-started process ran") })
		k.Stop() // late's start event is queued behind this one and is discarded
	})
	k.Spawn("unstarted", func(p *Proc) { t.Error("body ran across Stop") })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()

	k2 := NewKernel() // never run at all
	k2.Spawn("idle", func(p *Proc) { t.Error("body ran without Run") })
	k2.Shutdown()
	if n := goroutinesSettleTo(t, baseline); n > baseline {
		t.Fatalf("goroutines leaked: %d after, %d before", n, baseline)
	}
}

// A deferred function that parks again while Shutdown unwinds the body
// is unwound in turn instead of suspending the dead process.
func TestDeferredParkDuringUnwind(t *testing.T) {
	k := NewKernel()
	q := NewQueue[int](k, "never")
	var trail []string
	k.Spawn("stubborn", func(p *Proc) {
		defer func() { trail = append(trail, "outer") }()
		defer func() {
			trail = append(trail, "inner")
			p.Sleep(Us) // parks on a stopped coroutine: unwinds again
			trail = append(trail, "slept")
		}()
		pop(q, p)
		trail = append(trail, "popped")
	})
	if err := k.Run(); err == nil {
		t.Fatal("want deadlock")
	}
	k.Shutdown()
	if got := strings.Join(trail, ","); got != "inner,outer" {
		t.Fatalf("unwind trail %q, want %q", got, "inner,outer")
	}
}

// runtime.Goexit in a body — what t.FailNow does — must end the
// goroutine that called Run (so a failing assertion inside a process
// ends its test) rather than finish the process quietly or hang.
func TestGoexitInBodyEndsRunsCaller(t *testing.T) {
	baseline := runtime.NumGoroutine()
	k := NewKernel()
	k.Spawn("bystander", func(p *Proc) { p.Sleep(Ms) })
	k.Spawn("quitter", func(p *Proc) {
		p.Sleep(Us)
		runtime.Goexit()
	})
	returned := false
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = k.Run()
		returned = true
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run hung on a body that called Goexit")
	}
	if returned {
		t.Fatal("Run returned normally; Goexit did not reach its caller")
	}
	k.Shutdown() // the parked bystander and the dead quitter are both released
	if n := goroutinesSettleTo(t, baseline); n > baseline {
		t.Fatalf("goroutines leaked: %d after, %d before", n, baseline)
	}
}

// A panic in a body that Shutdown is unwinding surfaces from Shutdown,
// attributed like any other process panic.
func TestPanicDuringUnwindSurfaces(t *testing.T) {
	k := NewKernel()
	k.Spawn("sore-loser", func(p *Proc) {
		defer func() { panic("bad cleanup") }()
		p.Sleep(Ms)
	})
	k.Spawn("stopper", func(p *Proc) { k.Stop() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		want := `sim: process "sore-loser" panicked at 0ps: bad cleanup`
		if r := recover(); r != want {
			t.Fatalf("recover = %v, want %q", r, want)
		}
	}()
	k.Shutdown()
}

// Index-derived names render exactly the strings the eager
// fmt.Sprintf names did, in Name and in deadlock reports.
// blockedLines renders a deadlock's processes as "name: state" lines in
// the report's (Since, Name) order.
func blockedLines(de *DeadlockError) []string {
	out := make([]string, len(de.Procs))
	for i, bp := range de.Procs {
		out[i] = bp.Name + ": " + bp.State
	}
	return out
}

func TestLazyNamesRenderInDiagnostics(t *testing.T) {
	k := NewKernel()
	cpu := NewResourceIdx(k, "node", 3, ".cpu", 1)
	am := NewQueueIdx[int](k, "nic", 12, ".am")
	if cpu.Name() != "node3.cpu" || am.Name() != "nic12.am" {
		t.Fatalf("names %q, %q", cpu.Name(), am.Name())
	}
	var d *Cont
	d = k.SpawnService("node", 3, ".amdisp0", Func(func() { am.WaitFn(d, func() {}) }), 0)
	k.SpawnIdx("thread", 7, func(p *Proc) {
		acquire(cpu, p)
		acquire(cpu, p)
	})
	k.Spawn("popper", func(p *Proc) { pop(am, p) })
	err := k.Run()
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("want deadlock, got %v", err)
	}
	want := []string{"popper: pop nic12.am", "thread7: acquire node3.cpu"}
	if got := blockedLines(de); strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("blocked = %q, want %q", got, want)
	}
	if d.Name() != "node3.amdisp0" {
		t.Fatalf("service name %q", d.Name())
	}
	k.Shutdown()
}

// --- Await: a process calling the continuation form of an operation ---

// An operation that completes synchronously — its then runs before the
// process reaches Await — costs no park and no event.
func TestWakeBeforeAwait(t *testing.T) {
	k := NewKernel()
	var after Time
	k.Spawn("caller", func(p *Proc) {
		events := k.Events()
		p.Cont().Sleep(0, p.Wake()) // a zero-length sleep continues inline
		p.Await()
		if k.Events() != events {
			t.Errorf("synchronous completion cost %d events", k.Events()-events)
		}
		p.Cont().Sleep(3*Us, p.Wake())
		p.Await()
		after = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if after != 3*Us {
		t.Fatalf("resumed at %v, want 3us", after)
	}
	if k.Events() != 2 { // the start event and the sleep
		t.Fatalf("%d events, want 2", k.Events())
	}
	k.Shutdown()
}

// The wake may come from arbitrarily deep inside a kernel callback —
// here the second of two chained completions' Then callbacks — and the
// process resumes right there, at that event's position.
func TestWakeFromNestedCallback(t *testing.T) {
	k := NewKernel()
	a, b := NewCompletion(k, "a"), NewCompletion(k, "b")
	var trail []string
	k.Spawn("caller", func(p *Proc) {
		wake := p.Wake()
		a.Then(func(any) {
			trail = append(trail, "a")
			b.Then(func(any) {
				trail = append(trail, "b")
				wake()
				trail = append(trail, "woken-returned")
			})
		})
		p.Await()
		trail = append(trail, "resumed")
	})
	k.After(1*Us, func() { a.Complete(nil) })
	k.After(2*Us, func() {
		b.Complete(nil)
		trail = append(trail, "completer-done")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// The process ran (to its end) inside wake(), before the callback
	// that woke it returned.
	want := "a,b,resumed,woken-returned,completer-done"
	if got := strings.Join(trail, ","); got != want {
		t.Fatalf("trail %q, want %q", got, want)
	}
	if k.Events() != 3 {
		t.Fatalf("%d events, want 3: the wake must not add one", k.Events())
	}
	k.Shutdown()
}

// One process completing what another awaits resumes it on its own
// coroutine's stack; both carry on correctly afterwards.
func TestWakeOnAnotherProcessStack(t *testing.T) {
	k := NewKernel()
	c := NewCompletion(k, "handoff")
	var trail []string
	k.Spawn("waiter", func(p *Proc) {
		c.Then(func(any) { p.Wake()() })
		p.Await()
		trail = append(trail, "waiter-resumed")
		p.Sleep(1 * Us) // parks again, nested in the other process's Complete
		trail = append(trail, "waiter-slept")
	})
	k.Spawn("completer", func(p *Proc) {
		p.Sleep(1 * Us)
		c.Complete(nil)
		trail = append(trail, "completer-continued")
		p.Sleep(5 * Us)
		trail = append(trail, "completer-done")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := "waiter-resumed,completer-continued,waiter-slept,completer-done"
	if got := strings.Join(trail, ","); got != want {
		t.Fatalf("trail %q, want %q", got, want)
	}
	k.Shutdown()
}

// A body that returns while resumed from inside a callback is retired
// like any other: gone from the live set, its panic re-raised with the
// process named.
func TestBodyEndsInsideNestedResume(t *testing.T) {
	k := NewKernel()
	k.Spawn("brief", func(p *Proc) {
		p.Cont().Sleep(1*Us, p.Wake())
		p.Await()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(k.procs) != 0 {
		t.Fatalf("%d processes still live", len(k.procs))
	}
	k.Shutdown()

	k = NewKernel()
	k.Spawn("doomed", func(p *Proc) {
		p.Cont().Sleep(1*Us, p.Wake())
		p.Await()
		panic("boom")
	})
	defer func() {
		want := `sim: process "doomed" panicked at 1.000us: boom`
		if r := recover(); r != want {
			t.Fatalf("recover = %v, want %q", r, want)
		}
		if len(k.procs) != 0 {
			t.Fatalf("%d processes still live", len(k.procs))
		}
	}()
	_ = k.Run()
}

// Shutdown unwinds a process parked in Await like one parked anywhere.
func TestShutdownUnwindsAwait(t *testing.T) {
	baseline := runtime.NumGoroutine()
	k := NewKernel()
	never := NewCompletion(k, "never")
	unwound := false
	k.Spawn("stuck", func(p *Proc) {
		defer func() { unwound = true }()
		never.WaitFn(p.Cont(), p.Wake())
		p.Await()
		t.Error("Await returned")
	})
	if err := k.Run(); err == nil {
		t.Fatal("want deadlock")
	}
	k.Shutdown()
	if !unwound {
		t.Fatal("deferred function did not run")
	}
	if n := goroutinesSettleTo(t, baseline); n > baseline {
		t.Fatalf("goroutines leaked: %d after, %d before", n, baseline)
	}
}

// A deadlock report says what the awaited operation is blocked on now —
// the companion Cont's state — not what it was blocked on when the
// process parked, and not just that it is awaiting.
func TestDeadlockNamesAwaitedOperation(t *testing.T) {
	k := NewKernel()
	get := NewCompletion(k, "get")
	k.Spawn("reader", func(p *Proc) {
		ct := p.Cont()
		wake := p.Wake()
		ct.Sleep(2*Us, func() { get.WaitFn(ct, wake) }) // first sleeps, then waits forever
		p.Await()
	})
	err := k.Run()
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("want deadlock, got %v", err)
	}
	if len(de.Procs) != 1 || de.Procs[0].State != "waiting on get" || de.Procs[0].Since != 2*Us {
		t.Fatalf("blocked = %+v, want reader waiting on get since 2us", de.Procs)
	}
	if de.Procs[0].Name != "reader" {
		t.Fatalf("blocked = %+v", de.Procs)
	}
	k.Shutdown()
}

// --- Cont frames ----------------------------------------------------------

// recorder is a Stepper that logs the steps it runs and lets a test
// script what each one does next.
type recorder struct {
	log  []int
	next map[int]func()
}

func (r *recorder) Step(pc int) {
	r.log = append(r.log, pc)
	if fn := r.next[pc]; fn != nil {
		fn()
	}
}

// Parked steps run innermost first, one per Resume, whether the resume
// comes from an event or from the step before.
func TestContFramesRunInnermostFirst(t *testing.T) {
	k := NewKernel()
	r := &recorder{next: map[int]func(){}}
	c := k.SpawnC("t", func(c *Cont) {
		c.Park(r, 1)                                      // the caller's continuation
		c.Park(r, 2)                                      // a nested ladder's last step
		r.next[3] = c.Resume                              // step 3 completes synchronously
		r.next[2] = func() { c.Sleep(1*Us, c.Resumer()) } // step 2 waits, then returns to the caller
		c.Sleep(1*Us, c.Then(r, 3))
	})
	r.next[1] = c.Finish
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(r.log) != 3 || r.log[0] != 3 || r.log[1] != 2 || r.log[2] != 1 {
		t.Fatalf("steps ran in order %v, want [3 2 1]", r.log)
	}
	if k.Now() != 2*Us {
		t.Fatalf("finished at %v, want 2us", k.Now())
	}
	k.Shutdown()
}

// A chain of steps that each complete synchronously is run by one loop,
// not by recursion: a hundred thousand of them use constant stack.
func TestContSynchronousStepsDoNotRecurse(t *testing.T) {
	k := NewKernel()
	const n = 100_000
	left := n
	depth := 0
	maxDepth := 0
	r := &recorder{next: map[int]func(){}}
	k.SpawnC("t", func(c *Cont) {
		r.next[0] = func() {
			depth++
			if depth > maxDepth {
				maxDepth = depth
			}
			left--
			if left > 0 {
				c.Then(r, 0)() // park the next iteration and complete at once
			}
			depth--
		}
		c.Then(r, 0)()
		c.Finish()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if left != 0 || maxDepth != 1 {
		t.Fatalf("%d steps left, nesting reached %d (want 0 and 1)", left, maxDepth)
	}
	k.Shutdown()
}

// Nesting deeper than the frame array is a bug in the caller and says so.
func TestContFrameOverflowPanics(t *testing.T) {
	k := NewKernel()
	c := k.SpawnC("deep", func(*Cont) {})
	r := &recorder{}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "deep nests deeper") {
			t.Fatalf("recover = %v", r)
		}
	}()
	for i := 0; i <= maxFrames; i++ {
		c.Park(r, i)
	}
}

// A thread that runs as a bare Cont has no process; every process form
// called for it must say so, not die on a nil dereference.
func TestProcessFormOnNilProcNamesItself(t *testing.T) {
	var p *Proc
	for name, call := range map[string]func(){
		"Sleep":    func() { p.Sleep(Us) },
		"Cont":     func() { p.Cont() },
		"Wake":     func() { p.Wake() },
		"ParkWake": func() { p.ParkWake() },
		"Await":    func() { p.Await() },
	} {
		func() {
			defer func() {
				const want = "blocking call on a continuation-mode thread"
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), want) {
					t.Errorf("%s on a nil Proc: recovered %v, want a panic mentioning %q", name, r, want)
				}
			}()
			call()
		}()
	}
}
