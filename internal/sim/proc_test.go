package sim

import (
	"errors"
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
	k2.SpawnDaemon("idle", func(p *Proc) { t.Error("body ran without Run") })
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
		q.Pop(p)
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
	k.SpawnDaemon("bystander", func(p *Proc) { p.Sleep(Ms) })
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
	k.SpawnDaemon("sore-loser", func(p *Proc) {
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
func TestLazyNamesRenderInDiagnostics(t *testing.T) {
	k := NewKernel()
	cpu := NewResourceIdx(k, "node", 3, ".cpu", 1)
	am := NewQueueIdx[int](k, "nic", 12, ".am")
	if cpu.Name() != "node3.cpu" || am.Name() != "nic12.am" {
		t.Fatalf("names %q, %q", cpu.Name(), am.Name())
	}
	d := k.SpawnDaemonIdx("node", 3, ".amdisp0", func(p *Proc) { am.Pop(p) })
	k.SpawnIdx("thread", 7, func(p *Proc) {
		cpu.Acquire(p)
		cpu.Acquire(p)
	})
	k.Spawn("popper", func(p *Proc) { am.Pop(p) })
	err := k.Run()
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("want deadlock, got %v", err)
	}
	want := []string{"popper: pop nic12.am", "thread7: acquire node3.cpu"}
	if strings.Join(de.Blocked, "|") != strings.Join(want, "|") {
		t.Fatalf("blocked = %q, want %q", de.Blocked, want)
	}
	if d.Name() != "node3.amdisp0" {
		t.Fatalf("daemon name %q", d.Name())
	}
	k.Shutdown()
}
