package sim

import (
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"testing"
	"time"
	"unsafe"
)

// TestEventHeapProperty pushes events in random time order and checks
// the heap drains them in nondecreasing (time, seq) order. The heap is
// the event queue's overflow store and the oracle the lane queue is
// checked against (lanes_test.go), so its own order is checked here.
func TestEventHeapProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var h eventHeap
	var seq uint64
	const n = 5000
	for i := 0; i < n; i++ {
		seq++
		h.pushEv(event{t: Time(rng.Intn(64)), seq: seq})
	}
	lastT, lastSeq := Time(-1), uint64(0)
	for i := 0; i < n; i++ {
		if h.Len() == 0 {
			t.Fatalf("heap empty after %d pops, want %d", i, n)
		}
		ev := h.popEv()
		if ev.t < lastT || (ev.t == lastT && ev.seq <= lastSeq) {
			t.Fatalf("pop %d out of order: got (t=%d, seq=%d) after (t=%d, seq=%d)",
				i, ev.t, ev.seq, lastT, lastSeq)
		}
		lastT, lastSeq = ev.t, ev.seq
	}
	if h.Len() != 0 {
		t.Fatalf("heap not empty after draining: %d left", h.Len())
	}
}

// TestEventHeapFIFOTieBreak checks that events scheduled for the same
// instant run in scheduling order, including when interleaved with
// events at other times.
func TestEventHeapFIFOTieBreak(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		k.At(Time(10*(i%3)), func() { order = append(order, i) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 100 {
		t.Fatalf("ran %d callbacks, want 100", len(order))
	}
	for i := 1; i < len(order); i++ {
		a, b := order[i-1], order[i]
		if a%3 == b%3 && a > b {
			t.Fatalf("same-time callbacks out of scheduling order: %d before %d", a, b)
		}
		if a%3 > b%3 {
			t.Fatalf("callback at t=%d ran before one at t=%d", 10*(a%3), 10*(b%3))
		}
	}
}

// countParkedGoroutines samples runtime.NumGoroutine with settling
// retries, since goroutine exits are asynchronous.
func goroutinesSettleTo(t *testing.T, baseline int) int {
	t.Helper()
	n := 0
	for try := 0; try < 100; try++ {
		runtime.GC()
		n = runtime.NumGoroutine()
		if n <= baseline {
			return n
		}
		time.Sleep(2 * time.Millisecond)
	}
	return n
}

// TestShutdownReleasesGoroutines drives a run that ends with daemons
// (and, via Stop, regular processes) still parked, and checks Shutdown
// unwinds their goroutines instead of leaking them.
func TestShutdownReleasesGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for round := 0; round < 20; round++ {
		k := NewKernel()
		q := NewQueue[int](k, "inbox")
		for d := 0; d < 4; d++ {
			k.SpawnDaemon("daemon", func(p *Proc) {
				for {
					q.Pop(p)
				}
			})
		}
		k.Spawn("stopper", func(p *Proc) {
			p.Sleep(5)
			k.Stop()
		})
		k.Spawn("sleeper", func(p *Proc) {
			p.Sleep(1000) // still pending when Stop fires
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		k.Shutdown()
	}
	if n := goroutinesSettleTo(t, baseline); n > baseline {
		t.Fatalf("goroutines leaked: %d after, %d before", n, baseline)
	}
}

// TestShutdownIsIdempotent checks a second Shutdown (and one after a
// clean run with no daemons) is harmless.
func TestShutdownIsIdempotent(t *testing.T) {
	k := NewKernel()
	k.Spawn("p", func(p *Proc) { p.Sleep(1) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	k.Shutdown()
}

// TestAcquireCInterleavesFIFOWithProcs checks callback acquirers and
// process acquirers share one FIFO queue in arrival order.
func TestAcquireCInterleavesFIFOWithProcs(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "res", 1)
	var order []string
	k.Spawn("holder", func(p *Proc) {
		r.Acquire(p)
		p.Sleep(100)
		r.Release()
	})
	k.Spawn("driver", func(p *Proc) {
		p.Sleep(1)
		r.AcquireC(func() { // queued first
			order = append(order, "cb1")
			k.After(10, r.Release)
		})
		k.Spawn("waiter", func(p *Proc) { // queued second
			r.Acquire(p)
			order = append(order, "proc")
			p.Sleep(10)
			r.Release()
		})
		p.Sleep(1)
		r.AcquireC(func() { // queued third
			order = append(order, "cb2")
			k.After(10, r.Release)
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"cb1", "proc", "cb2"}
	if len(order) != len(want) {
		t.Fatalf("got order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("got order %v, want %v", order, want)
		}
	}
}

// TestOneWaiterKind checks that a parked process is its resume func in
// the same list a continuation's step sits in: registered alternately
// on each primitive, the two forms wake in registration order for one
// kernel event apiece, a resource charges both the same queueing time,
// and the event that carries either has no process field.
func TestOneWaiterKind(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 32 {
		t.Errorf("event is %d bytes, want 32 (t, seq, fn, tm)", got)
	}
	k := NewKernel()
	done := NewCompletion(k, "done")
	cnt := NewCounter(k, "cnt", 1)
	res := NewResource(k, "res", 1)
	q := NewQueue[int](k, "q")
	var order []string
	var events []int64 // k.Events() inside each wake
	note := func(id string) {
		order = append(order, id)
		events = append(events, k.Events())
	}
	// Spawn start events run in spawn order, so this is the order the
	// four waiters of a group register in.
	alternate := func(name string, proc func(*Proc), cont func(*Cont, func())) {
		for i := 0; i < 4; i++ {
			id := name + strconv.Itoa(i)
			if i%2 == 0 {
				k.Spawn(id, func(p *Proc) { proc(p); note(id) })
			} else {
				k.SpawnC(id, func(c *Cont) { cont(c, func() { note(id); c.Finish() }) })
			}
		}
	}
	alternate("completion", func(p *Proc) { p.Wait(done) },
		func(c *Cont, then func()) { done.WaitFn(c, then) })
	alternate("counter", func(p *Proc) { cnt.Wait(p) },
		func(c *Cont, then func()) { cnt.WaitFn(c, then) })
	if !res.TryAcquire() {
		t.Fatal("idle resource refused TryAcquire")
	}
	alternate("resource", func(p *Proc) { res.Acquire(p); res.Release() },
		func(c *Cont, then func()) { res.AcquireCont(c, func() { res.Release(); then() }) })
	for i := 0; i < 2; i++ {
		id := "queue" + strconv.Itoa(i)
		k.Spawn(id, func(p *Proc) {
			if v := q.Pop(p); v != i {
				t.Errorf("%s popped %d", id, v)
			}
			note(id)
		})
	}
	// One group per instant, so nothing else shares the woken events'.
	k.At(10, func() { done.Complete(nil) })
	k.At(20, cnt.Arrive)
	k.At(30, res.Release)
	k.At(40, func() { q.Push(0); q.Push(1) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()

	var want []string
	for _, g := range []string{"completion", "counter", "resource"} {
		for i := 0; i < 4; i++ {
			want = append(want, g+strconv.Itoa(i))
		}
	}
	want = append(want, "queue0", "queue1")
	if !slices.Equal(order, want) {
		t.Fatalf("wake order %v, want %v", order, want)
	}
	for i := 1; i < len(events); i++ {
		step := int64(1)
		if i%4 == 0 { // first of a group: the At event that woke it came between
			step = 2
		}
		if events[i]-events[i-1] != step {
			t.Errorf("%s woke %d events after %s, want %d", order[i], events[i]-events[i-1], order[i-1], step)
		}
	}
	// Four acquirers queued at 0, each granted at 30.
	if st := res.Stats(); st.Acquires != 5 || st.TotalWait != 4*30 {
		t.Errorf("resource stats %+v, want 5 acquires and 120 of queueing", st)
	}
}

// TestAcquireCImmediateWhenFree checks AcquireC on an idle resource
// runs its callback inline.
func TestAcquireCImmediateWhenFree(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "res", 1)
	ran := false
	k.At(0, func() {
		r.AcquireC(func() { ran = true })
		if !ran {
			t.Error("AcquireC on a free resource did not run inline")
		}
		r.Release()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestQueueNotifyTryPop checks the callback-consumer path: Notify fires
// after every push, TryPop drains, and backlog stays visible to Len.
func TestQueueNotifyTryPop(t *testing.T) {
	k := NewKernel()
	q := NewQueue[int](k, "q")
	var got []int
	busy := false
	var serve func()
	serve = func() {
		v, ok := q.TryPop()
		if !ok {
			busy = false
			return
		}
		got = append(got, v)
		k.After(10, serve) // 10 ps of service per item
	}
	q.Notify(func() {
		if busy {
			return
		}
		busy = true
		serve()
	})
	k.At(0, func() {
		q.Push(1)
		q.Push(2)
		q.Push(3)
		// The engine is busy with item 1; 2 and 3 must still be queued.
		if q.Len() != 2 {
			t.Errorf("backlog not visible: Len=%d, want 2", q.Len())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("drained %v, want [1 2 3]", got)
	}
	// Item 1 was taken into service inline at its own push, so only
	// items 2 and 3 were ever resident together.
	if q.MaxLen() != 2 {
		t.Fatalf("MaxLen=%d, want 2", q.MaxLen())
	}
}

// TestCompletionRecycle checks a recycled completion is reused by the
// next NewCompletion with fully reset state.
func TestCompletionRecycle(t *testing.T) {
	k := NewKernel()
	c := NewCompletion(k, "first")
	k.At(0, func() { c.Complete(42) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if c.Value().(int) != 42 {
		t.Fatalf("value = %v, want 42", c.Value())
	}
	k.Recycle(c)
	c2 := NewCompletion(k, "second")
	if c2 != c {
		t.Fatalf("NewCompletion did not reuse the recycled completion")
	}
	if c2.Done() || c2.Value() != nil || c2.name != "second" {
		t.Fatalf("recycled completion not reset: done=%v val=%v name=%q",
			c2.Done(), c2.Value(), c2.name)
	}
}

// TestThenRunsInlineInKernelContext checks thens registered before and
// after completion both run, at completion virtual time, without extra
// zero-delay events for the already-done case.
func TestThenRunsInlineInKernelContext(t *testing.T) {
	k := NewKernel()
	c := NewCompletion(k, "c")
	var at []Time
	c.Then(func(v any) { at = append(at, k.Now()) })
	k.At(7, func() {
		c.Complete(nil)
		// Then on a done completion runs immediately, inline.
		before := len(at)
		c.Then(func(v any) { at = append(at, k.Now()) })
		if len(at) != before+1 {
			t.Error("Then on done completion did not run inline")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(at) != 2 || at[0] != 7 || at[1] != 7 {
		t.Fatalf("then times = %v, want [7 7]", at)
	}
}
