package sim

import (
	"math/rand"
	"testing"
)

// scheduler is the surface a queue script drives: the Kernel on the
// lane queue, or heapKernel, the same event loop over the bare heap.
type scheduler interface {
	Now() Time
	Events() int64
	At(t Time, fn func())
	After(d Duration, fn func())
	AfterTimer(d Duration, fn func()) *Timer
	Stop()
	Run() error
}

// heapKernel is the oracle: the callback half of Kernel.Run as it was
// when one eventHeap held every pending event.
type heapKernel struct {
	now     Time
	heap    eventHeap
	seq     uint64
	stopped bool
	events  int64
}

func (k *heapKernel) Now() Time                   { return k.now }
func (k *heapKernel) Events() int64               { return k.events }
func (k *heapKernel) Stop()                       { k.stopped = true }
func (k *heapKernel) After(d Duration, fn func()) { k.At(k.now+d, fn) }

func (k *heapKernel) At(t Time, fn func()) {
	k.seq++
	k.heap.pushEv(event{t: t, seq: k.seq, fn: fn})
}

func (k *heapKernel) AfterTimer(d Duration, fn func()) *Timer {
	tm := &Timer{}
	k.seq++
	k.heap.pushEv(event{t: k.now + d, seq: k.seq, fn: fn, tm: tm})
	return tm
}

func (k *heapKernel) Run() error {
	for !k.stopped {
		for k.heap.Len() > 0 {
			if h := k.heap.peek(); h.tm == nil || !h.tm.cancelled {
				break
			}
			k.heap.popEv()
		}
		if k.heap.Len() == 0 {
			return nil
		}
		ev := k.heap.popEv()
		k.now = ev.t
		k.events++
		ev.fn()
		for !k.stopped && k.heap.Len() > 0 {
			nx := k.heap.peek()
			if nx.t != k.now {
				break
			}
			if nx.tm != nil && nx.tm.cancelled {
				k.heap.popEv()
				continue
			}
			fn := nx.fn
			k.heap.popEv()
			k.events++
			fn()
		}
	}
	return nil
}

// hotDelays recur the way profile constants do; every other delay a
// script draws is a byte (recurring, but more values than lanes, so
// lanes get reclaimed) or two bytes (mostly one-off: overflow).
var hotDelays = [...]Duration{1, 7, 10, 10, 250, 10 * Ns, 200 * Ns, Us, 3 * Us}

type firing struct {
	t  Time
	id uint64 // scheduling ordinal, which is the event's seq
}

// scriptRun interprets a byte script against one scheduler. Every
// callback logs (now, its own ordinal) and then spends script bytes on
// further operations, so two schedulers popping in the same order
// consume the script identically and one that pops a single event out
// of order diverges for good. A callback schedules one event on
// average, so the pending set swells and drains rather than exploding.
type scriptRun struct {
	s       scheduler
	script  []byte
	pos     int
	nextID  uint64
	timers  []*Timer
	fired   []firing
	stopped bool
}

func (r *scriptRun) next() int {
	if r.pos >= len(r.script) {
		return -1
	}
	b := r.script[r.pos]
	r.pos++
	return int(b)
}

// callback returns the function to schedule for the next ordinal.
func (r *scriptRun) callback() func() {
	r.nextID++
	id := r.nextID
	return func() {
		r.fired = append(r.fired, firing{r.s.Now(), id})
		for n := r.next() % 3; n > 0; n-- {
			r.op()
		}
	}
}

func (r *scriptRun) hot() Duration { return hotDelays[(r.next()+1)%len(hotDelays)] }

func (r *scriptRun) op() {
	s := r.s
	switch b := r.next(); b % 16 {
	case 0, 1, 2, 3, 4:
		s.After(r.hot(), r.callback())
	case 5, 6:
		s.After(Duration(r.next()+1), r.callback())
	case 7:
		s.After(Duration(r.next()+1)<<8+Duration(r.next()+1), r.callback())
	case 8:
		s.At(s.Now()+Time(r.next()+1)*100, r.callback())
	case 9:
		r.timers = append(r.timers, s.AfterTimer(r.hot(), r.callback()))
	case 10:
		r.timers = append(r.timers, s.AfterTimer(Duration(r.next()+1)*3, r.callback()))
	case 11: // cancel a timer, pending or long fired
		if len(r.timers) > 0 {
			r.timers[(r.next()+1)%len(r.timers)].Cancel()
		}
	case 12, 13: // zero-delay chain
		s.After(0, r.callback())
	case 14:
		switch c := r.next(); {
		case c < 0:
		case c >= 24 && c < 26:
			r.stopped = true
			s.Stop()
		default:
			s.After(r.hot(), r.callback())
		}
	case 15: // burst: deepen the queue so rings wrap and grow
		for n := (r.next() + 1) % 48; n > 0; n-- {
			s.After(hotDelays[n%len(hotDelays)], r.callback())
		}
	}
}

// run spends the whole script: it schedules a few events from outside
// Run (the At-before-Run path), runs until the queue drains, and
// starts over while script is left.
func (r *scriptRun) run() error {
	for !r.stopped {
		for n := (r.next() + 1) % 8; n >= 0; n-- {
			r.s.At(r.s.Now()+Time(r.next()+1)*50, r.callback())
		}
		if err := r.s.Run(); err != nil {
			return err
		}
		if r.pos >= len(r.script) {
			break
		}
	}
	return nil
}

// checkQueueScript runs script through a Kernel and through the heap
// oracle and requires the same (t, seq) firing sequence, clock and
// event count from both.
func checkQueueScript(t *testing.T, script []byte) QueueStats {
	t.Helper()
	k := NewKernel()
	got := &scriptRun{s: k, script: script}
	want := &scriptRun{s: &heapKernel{}, script: script}
	if err := got.run(); err != nil {
		t.Fatalf("kernel: %v", err)
	}
	if err := want.run(); err != nil {
		t.Fatalf("oracle: %v", err)
	}
	for i := range want.fired {
		if i >= len(got.fired) {
			break
		}
		if got.fired[i] != want.fired[i] {
			t.Fatalf("pop %d: lane queue fired (t=%d, seq=%d), heap fired (t=%d, seq=%d)",
				i, got.fired[i].t, got.fired[i].id, want.fired[i].t, want.fired[i].id)
		}
	}
	if len(got.fired) != len(want.fired) {
		t.Fatalf("lane queue fired %d events, heap %d", len(got.fired), len(want.fired))
	}
	if got.s.Now() != want.s.Now() || got.s.Events() != want.s.Events() {
		t.Fatalf("lane queue ended at t=%d after %d events, heap at t=%d after %d",
			got.s.Now(), got.s.Events(), want.s.Now(), want.s.Events())
	}
	st := k.QueueStats()
	if pushes := st.LanePushes + st.NowPushes + st.OverflowPushes; pushes != int64(got.nextID) {
		t.Fatalf("QueueStats account for %d pushes, %d events were scheduled", pushes, got.nextID)
	}
	return st
}

func TestLaneQueueMatchesHeap(t *testing.T) {
	var sum QueueStats
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		script := make([]byte, 256<<(seed%6))
		rng.Read(script)
		st := checkQueueScript(t, script)
		sum.LanePushes += st.LanePushes
		sum.NowPushes += st.NowPushes
		sum.OverflowPushes += st.OverflowPushes
		sum.Lanes = max(sum.Lanes, st.Lanes)
		sum.MaxPending = max(sum.MaxPending, st.MaxPending)
	}
	// The scripts must reach every store, fill every lane (so that lanes
	// are reclaimed) and outgrow a ring's first allocation.
	if sum.LanePushes == 0 || sum.NowPushes == 0 || sum.OverflowPushes == 0 ||
		sum.Lanes != numLanes || sum.MaxPending < 64 {
		t.Fatalf("scripts do not cover the queue: %+v", sum)
	}
}

// FuzzQueueOrder is the same differential check on scripts the fuzzer
// writes; testdata/fuzz/FuzzQueueOrder holds one seed per queue path.
func FuzzQueueOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, script []byte) { checkQueueScript(t, script) })
}

// TestLaneTakesLateHotDelay is the starvation guard: delays that never
// repeat must not use up the lanes, and a queue whose lanes all went to
// delays that have since gone quiet must still give the delay that is
// hot now a lane.
func TestLaneTakesLateHotDelay(t *testing.T) {
	nop := func() {}
	hot := 7 * Ns
	laneOf := func(k *Kernel, d Duration) int {
		for i := range k.q.lanes {
			if k.q.lanes[i].d == d {
				return i
			}
		}
		return -1
	}
	// schedHot schedules the hot delay 100 times; all but the first
	// `misses` must land in its lane.
	schedHot := func(t *testing.T, k *Kernel, misses int64) {
		before := k.QueueStats().LanePushes
		for i := 0; i < 100; i++ {
			k.After(hot, nop)
		}
		if got := k.QueueStats().LanePushes - before; got != 100-misses || laneOf(k, hot) < 0 {
			t.Fatalf("hot delay: %d of 100 pushes in a lane (lane %d), want %d", got, laneOf(k, hot), 100-misses)
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("one-offs", func(t *testing.T) {
		k := NewKernel()
		for i := 0; i < 4*numLanes; i++ {
			k.After(Us+Duration(i), nop)
		}
		if st := k.QueueStats(); st.Lanes != 0 || st.OverflowPushes != 4*numLanes {
			t.Fatalf("one-off delays took lanes: %+v", st)
		}
		schedHot(t, k, 1)
	})

	t.Run("stale lanes", func(t *testing.T) {
		k := NewKernel()
		for rep := 0; rep < 3; rep++ {
			for i := 0; i < numLanes+8; i++ {
				k.After(Us+Duration(i), nop)
			}
		}
		if st := k.QueueStats(); st.Lanes != numLanes {
			t.Fatalf("recurring delays hold %d lanes, want all %d", st.Lanes, numLanes)
		}
		// Every lane is busy: the hot delay has to wait in overflow...
		k.After(hot, nop)
		k.After(hot, nop)
		if laneOf(k, hot) >= 0 {
			t.Fatal("hot delay took a lane that still held events")
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		// ...and takes over an idle one once they have drained.
		schedHot(t, k, 0)
	})
}

// TestLaneRefusesOutOfOrderPush drives the queue with a clock that
// steps backwards, which the kernel never does: the push that would
// break a lane's FIFO order must land in overflow and pop in order.
func TestLaneRefusesOutOfOrderPush(t *testing.T) {
	var q laneQueue
	nows := []Time{100, 100, 100, 40, 100, 60}
	for i, now := range nows {
		q.push(now, now+10, uint64(i+1), nil, nil)
	}
	if st := q.stats; st.LanePushes != 3 || st.OverflowPushes != 3 {
		t.Fatalf("want the first (unseen) and both backward pushes in overflow: %+v", st)
	}
	var last event
	for n := 0; ; n++ {
		e, src := q.head()
		if e == nil {
			if n != len(nows) {
				t.Fatalf("popped %d events, want %d", n, len(nows))
			}
			break
		}
		if n > 0 && !before(&last, e) {
			t.Fatalf("pop %d out of order: (t=%d, seq=%d) after (t=%d, seq=%d)", n, e.t, e.seq, last.t, last.seq)
		}
		last = *e
		q.take(src)
	}
}
