package sim

import (
	"errors"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// wait, waitCount, acquire, use and pop are the blocking forms a test
// process calls: the continuation form with the process's Wake, then
// Await, the way every process-side wait is built.
func wait(p *Proc, c *Completion) {
	c.WaitFn(p.Cont(), p.Wake())
	p.Await()
}

func waitCount(c *Counter, p *Proc) {
	for c.Pending() > 0 {
		c.WaitFn(p.Cont(), p.Wake())
		p.Await()
	}
}

func acquire(r *Resource, p *Proc) {
	r.AcquireCont(p.Cont(), p.Wake())
	p.Await()
}

// use holds a slot of r for d.
func use(r *Resource, p *Proc, d Duration) {
	acquire(r, p)
	p.Sleep(d)
	r.Release()
}

func pop[T any](q *Queue[T], p *Proc) T {
	for {
		if v, ok := q.TryPop(); ok {
			return v
		}
		q.WaitFn(p.Cont(), p.Wake())
		p.Await()
	}
}

func TestSleepAdvancesClock(t *testing.T) {
	k := NewKernel()
	var woke Time
	k.Spawn("sleeper", func(p *Proc) {
		p.Sleep(5 * Us)
		woke = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 5*Us {
		t.Fatalf("woke at %v, want 5us", woke)
	}
	if k.Now() != 5*Us {
		t.Fatalf("kernel now %v, want 5us", k.Now())
	}
}

func TestZeroAndNegativeSleepDoNotYield(t *testing.T) {
	k := NewKernel()
	order := []string{}
	k.Spawn("a", func(p *Proc) {
		p.Sleep(0)
		p.Sleep(-3 * Ns)
		order = append(order, "a")
	})
	k.Spawn("b", func(p *Proc) { order = append(order, "b") })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// "a" spawned first and never yields, so it finishes before "b" runs.
	if got := strings.Join(order, ""); got != "ab" {
		t.Fatalf("order %q, want ab", got)
	}
}

func TestSimultaneousEventsRunFIFO(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.Spawn("p", func(p *Proc) {
			p.Sleep(1 * Us) // all wake at the same instant
			order = append(order, i)
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order %v not FIFO", order)
		}
	}
}

func TestEventOrderingAcrossTimes(t *testing.T) {
	k := NewKernel()
	var times []Time
	delays := []Time{7 * Us, 3 * Us, 9 * Us, 1 * Us, 3 * Us}
	for _, d := range delays {
		d := d
		k.Spawn("p", func(p *Proc) {
			p.Sleep(d)
			times = append(times, p.Now())
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !sort.SliceIsSorted(times, func(i, j int) bool { return times[i] < times[j] }) {
		t.Fatalf("wake times not monotone: %v", times)
	}
}

func TestCompletionWakesWaiters(t *testing.T) {
	k := NewKernel()
	c := NewCompletion(k, "c")
	var wokeA, wokeB Time
	k.Spawn("a", func(p *Proc) { wait(p, c); wokeA = p.Now() })
	k.Spawn("b", func(p *Proc) { wait(p, c); wokeB = p.Now() })
	k.Spawn("completer", func(p *Proc) {
		p.Sleep(4 * Us)
		c.Complete("payload")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if wokeA != 4*Us || wokeB != 4*Us {
		t.Fatalf("woke at %v/%v, want 4us", wokeA, wokeB)
	}
	if c.Value() != "payload" || !c.Done() || c.CompletedAt() != 4*Us {
		t.Fatalf("completion state wrong: %v %v %v", c.Value(), c.Done(), c.CompletedAt())
	}
}

func TestWaitOnDoneCompletionReturnsImmediately(t *testing.T) {
	k := NewKernel()
	c := NewCompletion(k, "c")
	ran := false
	k.Spawn("a", func(p *Proc) {
		c.Complete(nil)
		wait(p, c) // already done: no yield
		ran = true
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("process did not finish")
	}
}

func TestDoubleCompletePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double complete")
		}
	}()
	k := NewKernel()
	k.Spawn("a", func(p *Proc) {
		c := NewCompletion(k, "c")
		c.Complete(nil)
		c.Complete(nil)
	})
	_ = k.Run()
}

func TestCompleteAfter(t *testing.T) {
	k := NewKernel()
	c := NewCompletion(k, "c")
	var woke Time
	k.Spawn("a", func(p *Proc) {
		c.CompleteAfter(10*Us, 42)
		wait(p, c)
		woke = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 10*Us || c.Value() != 42 {
		t.Fatalf("woke=%v val=%v", woke, c.Value())
	}
}

func TestCounterFence(t *testing.T) {
	k := NewKernel()
	c := NewCounter(k, "fence", 3)
	var woke Time
	k.Spawn("waiter", func(p *Proc) {
		waitCount(c, p)
		woke = p.Now()
	})
	for i := 1; i <= 3; i++ {
		d := Time(i) * Us
		k.Spawn("arriver", func(p *Proc) {
			p.Sleep(d)
			c.Arrive()
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 3*Us {
		t.Fatalf("woke at %v, want 3us", woke)
	}
	if c.Pending() != 0 {
		t.Fatalf("pending %d, want 0", c.Pending())
	}
}

func TestCounterZeroWaitIsImmediate(t *testing.T) {
	k := NewKernel()
	done := false
	k.Spawn("w", func(p *Proc) {
		waitCount(NewCounter(k, "z", 0), p)
		done = true
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("waiter blocked on zero counter")
	}
}

func TestResourceContentionSerializes(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "cpu", 1)
	var ends []Time
	for i := 0; i < 3; i++ {
		k.Spawn("worker", func(p *Proc) {
			use(r, p, 10*Us)
			ends = append(ends, p.Now())
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{10 * Us, 20 * Us, 30 * Us}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends = %v, want %v", ends, want)
		}
	}
	st := r.Stats()
	if st.Acquires != 3 {
		t.Fatalf("acquires %d, want 3", st.Acquires)
	}
	if st.BusyTime != 30*Us {
		t.Fatalf("busy %v, want 30us", st.BusyTime)
	}
	if st.TotalWait != 30*Us { // 0 + 10 + 20
		t.Fatalf("wait %v, want 30us", st.TotalWait)
	}
}

func TestResourceCapacityParallelism(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "cores", 2)
	var ends []Time
	for i := 0; i < 4; i++ {
		k.Spawn("worker", func(p *Proc) {
			use(r, p, 10*Us)
			ends = append(ends, p.Now())
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{10 * Us, 10 * Us, 20 * Us, 20 * Us}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends = %v, want %v", ends, want)
		}
	}
}

func TestResourceFIFOOrder(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "nic", 1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		k.Spawn("w", func(p *Proc) {
			p.Sleep(Time(i) * Ns) // stagger arrivals
			acquire(r, p)
			order = append(order, i)
			p.Sleep(1 * Us)
			r.Release()
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("service order %v not FIFO", order)
		}
	}
}

func TestTryAcquire(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "x", 1)
	k.Spawn("a", func(p *Proc) {
		if !r.TryAcquire() {
			t.Error("first TryAcquire failed")
		}
		if r.TryAcquire() {
			t.Error("second TryAcquire succeeded on full resource")
		}
		r.Release()
		if !r.TryAcquire() {
			t.Error("TryAcquire after release failed")
		}
		r.Release()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestReleaseIdlePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	k := NewKernel()
	r := NewResource(k, "x", 1)
	k.Spawn("a", func(p *Proc) { r.Release() })
	_ = k.Run()
}

func TestQueuePushPop(t *testing.T) {
	k := NewKernel()
	q := NewQueue[int](k, "mbox")
	var got []int
	var at []Time
	k.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, pop(q, p))
			at = append(at, p.Now())
		}
	})
	k.Spawn("producer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(2 * Us)
			q.Push(i)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if got[i] != i || at[i] != Time(i+1)*2*Us {
			t.Fatalf("got=%v at=%v", got, at)
		}
	}
	if q.Pushes() != 3 || q.Len() != 0 {
		t.Fatalf("pushes=%d len=%d", q.Pushes(), q.Len())
	}
}

func TestQueueMultipleConsumers(t *testing.T) {
	k := NewKernel()
	q := NewQueue[int](k, "mbox")
	sum := 0
	for i := 0; i < 3; i++ {
		k.Spawn("consumer", func(p *Proc) { sum += pop(q, p) })
	}
	k.Spawn("producer", func(p *Proc) {
		p.Sleep(1 * Us)
		q.Push(1)
		q.Push(2)
		q.Push(3)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if sum != 6 {
		t.Fatalf("sum=%d, want 6", sum)
	}
}

func TestTryPop(t *testing.T) {
	k := NewKernel()
	q := NewQueue[string](k, "mbox")
	k.Spawn("a", func(p *Proc) {
		if _, ok := q.TryPop(); ok {
			t.Error("TryPop on empty queue succeeded")
		}
		q.Push("x")
		v, ok := q.TryPop()
		if !ok || v != "x" {
			t.Errorf("TryPop = %q,%v", v, ok)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockDetection(t *testing.T) {
	k := NewKernel()
	c := NewCompletion(k, "never")
	k.Spawn("stuck", func(p *Proc) { wait(p, c) })
	err := k.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(dl.Procs) != 1 || dl.Procs[0].Name != "stuck" {
		t.Fatalf("blocked = %+v", dl.Procs)
	}
	if !strings.Contains(dl.Error(), "never") {
		t.Fatalf("error message %q lacks completion name", dl.Error())
	}
}

func TestCallbacksRunAtScheduledTime(t *testing.T) {
	k := NewKernel()
	var at Time
	k.Spawn("a", func(p *Proc) {
		k.After(7*Us, func() { at = k.Now() })
		p.Sleep(20 * Us)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 7*Us {
		t.Fatalf("callback at %v, want 7us", at)
	}
}

func TestSpawnFromProcessAndCallback(t *testing.T) {
	k := NewKernel()
	var log []string
	k.Spawn("root", func(p *Proc) {
		p.Sleep(1 * Us)
		k.Spawn("child", func(p *Proc) { log = append(log, "child@"+p.Now().String()) })
		k.After(2*Us, func() {
			k.Spawn("grand", func(p *Proc) { log = append(log, "grand@"+p.Now().String()) })
		})
		p.Sleep(10 * Us)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(log) != 2 || log[0] != "child@1.000us" || log[1] != "grand@3.000us" {
		t.Fatalf("log = %v", log)
	}
}

func TestProcessPanicPropagates(t *testing.T) {
	defer func() {
		want := `sim: process "bomber" panicked at 1.000us: boom`
		if r := recover(); r != want {
			t.Fatalf("recover = %v, want %q", r, want)
		}
	}()
	k := NewKernel()
	k.Spawn("bomber", func(p *Proc) {
		p.Sleep(1 * Us)
		panic("boom")
	})
	_ = k.Run()
}

func TestStopHaltsRun(t *testing.T) {
	k := NewKernel()
	k.Spawn("a", func(p *Proc) {
		p.Sleep(1 * Us)
		k.Stop()
		p.Sleep(100 * Us)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Now() != 1*Us {
		t.Fatalf("stopped at %v, want 1us", k.Now())
	}
}

func TestSetLimitStopsBeforeEvent(t *testing.T) {
	k := NewKernel()
	k.SetLimit(5 * Us)
	reached := false
	k.Spawn("a", func(p *Proc) {
		p.Sleep(10 * Us)
		reached = true
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if reached {
		t.Fatal("event past the limit ran")
	}
}

func TestSchedulingIntoPastPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	k := NewKernel()
	k.Spawn("a", func(p *Proc) {
		p.Sleep(5 * Us)
		k.At(1*Us, func() {})
	})
	_ = k.Run()
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) []Time {
		k := NewKernel()
		r := NewResource(k, "r", 2)
		rng := rand.New(rand.NewSource(seed))
		var ends []Time
		for i := 0; i < 50; i++ {
			d := Time(rng.Intn(1000)) * Ns
			k.Spawn("w", func(p *Proc) {
				p.Sleep(d)
				use(r, p, Time(rng.Intn(500))*Ns)
				ends = append(ends, p.Now())
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return ends
	}
	// Note: rng is consulted during Spawn loop AND inside bodies; the
	// strict handoff makes the interleaving, and hence the draw order,
	// reproducible.
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run not deterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500 * Ps, "500ps"},
		{1500 * Ps, "1.500ns"},
		{12*Us + 345*Ns, "12.345us"},
		{3 * Ms, "3.000ms"},
		{2 * Sec, "2.000000s"},
		{-1 * Us, "-1.000us"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestPerByte(t *testing.T) {
	if got := PerByte(250); got != 4000*Ps {
		t.Fatalf("PerByte(250MB/s) = %v, want 4000ps", got)
	}
	if got := PerByte(2000); got != 500*Ps {
		t.Fatalf("PerByte(2GB/s) = %v, want 500ps", got)
	}
	if got := PerByte(0); got != 0 {
		t.Fatalf("PerByte(0) = %v, want 0", got)
	}
	if got := BytesTime(1024, 4000*Ps); got != 1024*4000*Ps {
		t.Fatalf("BytesTime = %v", got)
	}
}

// Property: for any set of non-negative delays, processes wake in
// non-decreasing time order and the final clock equals the max delay.
func TestPropertyWakeOrdering(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 64 {
			raw = raw[:64]
		}
		k := NewKernel()
		var wakes []Time
		var max Time
		for _, r := range raw {
			d := Time(r) * Ns
			if d > max {
				max = d
			}
			k.Spawn("w", func(p *Proc) {
				p.Sleep(d)
				wakes = append(wakes, p.Now())
			})
		}
		if err := k.Run(); err != nil {
			return false
		}
		if k.Now() != max {
			return false
		}
		return sort.SliceIsSorted(wakes, func(i, j int) bool { return wakes[i] < wakes[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: a capacity-c resource with n unit-time jobs completes at
// ceil(n/c) time units, regardless of spawn order.
func TestPropertyResourceMakespan(t *testing.T) {
	f := func(n8, c8 uint8) bool {
		n := int(n8%40) + 1
		c := int(c8%8) + 1
		k := NewKernel()
		r := NewResource(k, "r", c)
		for i := 0; i < n; i++ {
			k.Spawn("w", func(p *Proc) { use(r, p, 1*Us) })
		}
		if err := k.Run(); err != nil {
			return false
		}
		want := Time((n+c-1)/c) * Us
		return k.Now() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// A service engine waits for the rest of the run without keeping Run
// alive or being reported as deadlocked.
func TestDaemonDoesNotDeadlock(t *testing.T) {
	k := NewKernel()
	q := NewQueue[int](k, "svc")
	served := 0
	var svc *Cont
	var serve func()
	serve = func() {
		for _, ok := q.TryPop(); ok; _, ok = q.TryPop() {
			served++
		}
		q.WaitFn(svc, serve)
	}
	svc = k.SpawnService("dispatcher", -1, "", Func(serve), 0)
	k.Spawn("client", func(p *Proc) {
		p.Sleep(1 * Us)
		q.Push(1)
		q.Push(2)
		p.Sleep(1 * Us)
	})
	if err := k.Run(); err != nil {
		t.Fatalf("run ended with %v; services must not deadlock", err)
	}
	if served != 2 {
		t.Fatalf("served %d, want 2", served)
	}
}

func TestDaemonExcludedFromDeadlockReport(t *testing.T) {
	k := NewKernel()
	var svc *Cont
	svc = k.SpawnService("svc", -1, "", Func(func() { NewCompletion(k, "never-svc").WaitFn(svc, func() {}) }), 0)
	k.Spawn("stuck", func(p *Proc) { wait(p, NewCompletion(k, "never-user")) })
	err := k.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v", err)
	}
	if len(dl.Procs) != 1 || dl.Procs[0].Name != "stuck" {
		t.Fatalf("blocked = %+v", dl.Procs)
	}
}

func TestCompletionThen(t *testing.T) {
	k := NewKernel()
	var fired []Time
	c := NewCompletion(k, "c")
	k.Spawn("a", func(p *Proc) {
		c.Then(func(v any) { fired = append(fired, k.Now()) }) // registered before
		p.Sleep(3 * Us)
		c.Complete("x")
		c.Then(func(v any) { // registered after: still fires, at now
			if v != "x" {
				t.Errorf("late Then got %v", v)
			}
			fired = append(fired, k.Now())
		})
		p.Sleep(1 * Us)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 || fired[0] != 3*Us || fired[1] != 3*Us {
		t.Fatalf("fired = %v", fired)
	}
}

func TestCounterAdd(t *testing.T) {
	k := NewKernel()
	c := NewCounter(k, "c", 1)
	c.Add(2)
	var woke Time
	k.Spawn("w", func(p *Proc) {
		waitCount(c, p)
		woke = p.Now()
	})
	for i := 1; i <= 3; i++ {
		d := Time(i) * Us
		k.Spawn("a", func(p *Proc) { p.Sleep(d); c.Arrive() })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 3*Us {
		t.Fatalf("woke %v", woke)
	}
}

func TestCounterOverArrivePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	k := NewKernel()
	k.Spawn("a", func(p *Proc) {
		c := NewCounter(k, "c", 0)
		c.Arrive()
	})
	_ = k.Run()
}

func TestProcAccessors(t *testing.T) {
	k := NewKernel()
	k.Spawn("named", func(p *Proc) {
		if p.Name() != "named" || p.Kernel() != k {
			t.Error("accessors wrong")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestQueueMaxLen(t *testing.T) {
	k := NewKernel()
	q := NewQueue[int](k, "q")
	k.Spawn("a", func(p *Proc) {
		q.Push(1)
		q.Push(2)
		q.Push(3)
		q.TryPop()
		q.Push(4)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if q.MaxLen() != 3 {
		t.Fatalf("maxlen %d", q.MaxLen())
	}
}

func TestInvalidResourceCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewResource(NewKernel(), "bad", 0)
}

func TestResourceAccessors(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "r", 3)
	if r.Name() != "r" || r.Capacity() != 3 || r.InUse() != 0 {
		t.Fatal("accessors wrong")
	}
}

// Validate the kernel against queueing theory: an M/D/1 queue
// (Poisson arrivals, deterministic service, one server) has a known
// mean waiting time W = ρ·s / (2(1−ρ)). The simulated mean must land
// within a few percent — a closed-form check that resource contention,
// event ordering and time accounting compose correctly.
func TestMD1QueueMatchesTheory(t *testing.T) {
	const (
		service = 1000 * Ns
		rho     = 0.7
		jobs    = 30000
	)
	meanInterarrival := float64(service) / rho
	k := NewKernel()
	r := NewResource(k, "server", 1)
	rng := rand.New(rand.NewSource(42))
	var totalWait Time
	k.Spawn("source", func(p *Proc) {
		for i := 0; i < jobs; i++ {
			p.Sleep(Time(rng.ExpFloat64() * meanInterarrival))
			k.Spawn("job", func(jp *Proc) {
				arrive := jp.Now()
				acquire(r, jp)
				totalWait += jp.Now() - arrive
				jp.Sleep(service)
				r.Release()
			})
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	measured := float64(totalWait) / jobs
	theory := rho * float64(service) / (2 * (1 - rho))
	if ratio := measured / theory; ratio < 0.93 || ratio > 1.07 {
		t.Fatalf("M/D/1 wait %.1fns vs theory %.1fns (ratio %.3f)",
			measured/1000, theory/1000, ratio)
	}
}
