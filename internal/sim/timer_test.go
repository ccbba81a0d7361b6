package sim

import (
	"errors"
	"strings"
	"testing"
)

// A cancelled timer's callback must never run, and discarding the dead
// event must not advance the clock: the run ends at the last live
// event, not at the abandoned timeout.
func TestAfterTimerCancelDoesNotAdvanceClock(t *testing.T) {
	k := NewKernel()
	fired := false
	var tm *Timer
	k.Spawn("worker", func(p *Proc) {
		tm = k.AfterTimer(500*Ms, func() { fired = true })
		p.Sleep(2 * Us)
		tm.Cancel()
		p.Sleep(1 * Us)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("cancelled timer fired")
	}
	if k.Now() != 3*Us {
		t.Fatalf("clock at %v; the dead timeout stretched the run", k.Now())
	}
}

func TestAfterTimerFiresWhenNotCancelled(t *testing.T) {
	k := NewKernel()
	var at Time
	k.AfterTimer(7*Us, func() { at = k.Now() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 7*Us {
		t.Fatalf("fired at %v", at)
	}
	// Cancel after firing, and on a nil timer: both harmless.
	var nilT *Timer
	nilT.Cancel()
}

// A caller-owned timer is Queued from ArmTimer until its event leaves
// the queue — fired, or cancelled and discarded — and only then may it
// be armed again; re-arming it while queued would revive a cancelled
// event, so ArmTimer refuses.
func TestArmTimerQueuedUntilItsEventLeaves(t *testing.T) {
	k := NewKernel()
	var tm Timer
	fired := 0
	k.ArmTimer(&tm, 5*Us, func() { fired++ })
	tm.Cancel()
	if !tm.Queued() {
		t.Fatal("a cancelled timer left the queue before its time")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("ArmTimer re-armed a queued timer")
			}
		}()
		k.ArmTimer(&tm, Us, func() { fired++ })
	}()
	k.After(6*Us, func() {
		if tm.Queued() {
			t.Error("the cancelled event was not discarded by its time")
		}
		k.ArmTimer(&tm, Us, func() {
			fired++
			if tm.Queued() {
				t.Error("a firing timer still reads queued")
			}
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 1 || k.Now() != 7*Us {
		t.Fatalf("fired %d times, clock %v; want once, at 7us", fired, k.Now())
	}
}

// Cancelled timers at the head of the queue must not mask a deadlock:
// once they are discarded, blocked processes are still reported.
func TestCancelledTimerDoesNotMaskDeadlock(t *testing.T) {
	k := NewKernel()
	tm := k.AfterTimer(Ms, func() {})
	never := NewCompletion(k, "never")
	k.Spawn("stuck", func(p *Proc) {
		p.Sleep(Us)
		tm.Cancel()
		wait(p, never)
	})
	err := k.Run()
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("want deadlock, got %v", err)
	}
	if de.At != Us {
		t.Fatalf("deadlock detected at %v; dead timer advanced the clock", de.At)
	}
}

// DeadlockError must carry triage material: which process, parked on
// what, since when — with the parked-since time being the stall onset,
// not the detection time.
func TestDeadlockErrorDetails(t *testing.T) {
	k := NewKernel()
	never := NewCompletion(k, "reply-that-never-comes")
	q := NewQueue[int](k, "inbox")
	r := NewResource(k, "nic.tx", 1)
	k.Spawn("holder", func(p *Proc) {
		acquire(r, p)
		p.Sleep(3 * Us)
		wait(p, never)
	})
	k.Spawn("waiter", func(p *Proc) {
		p.Sleep(1 * Us)
		acquire(r, p)
	})
	k.Spawn("popper", func(p *Proc) {
		p.Sleep(2 * Us)
		pop(q, p)
	})
	err := k.Run()
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("want deadlock, got %v", err)
	}
	if len(de.Procs) != 3 {
		t.Fatalf("blocked sets wrong: %+v", de)
	}
	// Sorted by park time: waiter (1µs), popper (2µs), holder (3µs).
	want := []struct {
		name  string
		since Time
		state string
	}{
		{"waiter", 1 * Us, "nic.tx"},
		{"popper", 2 * Us, "inbox"},
		{"holder", 3 * Us, "reply-that-never-comes"},
	}
	for i, w := range want {
		bp := de.Procs[i]
		if bp.Name != w.name || bp.Since != w.since || !strings.Contains(bp.State, w.state) {
			t.Fatalf("proc %d = %+v, want %s on %q since %v", i, bp, w.name, w.state, w.since)
		}
	}
	msg := err.Error()
	for _, frag := range []string{"nic.tx", "inbox", "reply-that-never-comes", "parked since 1.000us"} {
		if !strings.Contains(msg, frag) {
			t.Fatalf("error message missing %q:\n%s", frag, msg)
		}
	}
}

// Shutdown must unwind processes parked on resources and queues
// mid-transfer — the abort path a transport failure exercises — and
// leave no goroutine behind.
func TestShutdownWhileBlockedOnResourceAndQueue(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "dma", 1)
	q := NewQueue[string](k, "arrivals")
	c := NewCompletion(k, "transfer")
	k.Spawn("holder", func(p *Proc) {
		acquire(r, p)
		wait(p, c) // mid-transfer: holds the resource, waits forever
	})
	k.Spawn("blocked-on-resource", func(p *Proc) {
		p.Sleep(Us)
		acquire(r, p)
		t.Error("acquired a resource held across Shutdown")
	})
	k.Spawn("blocked-on-queue", func(p *Proc) {
		pop(q, p)
		t.Error("popped from an empty queue across Shutdown")
	})
	k.Spawn("stopper", func(p *Proc) {
		p.Sleep(2 * Us)
		k.Stop()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	k.Shutdown() // must not hang or panic with three parked processes
	if k.Now() != 2*Us {
		t.Fatalf("clock at %v", k.Now())
	}
	// The kernel is done; a second Shutdown stays a no-op.
	k.Shutdown()
}
