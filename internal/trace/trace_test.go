package trace

import (
	"io"
	"strings"
	"testing"
	"testing/quick"

	"xlupc/internal/sim"
	"xlupc/internal/telemetry"
)

// of is the trace of the given intervals, already in end order: the
// trace FromSpans builds of spans that closed as they did.
func of(ivs ...Interval) *Trace { return &Trace{intervals: ivs} }

// A span's begin and end bound one interval in the state of its
// operation; a compute interval is one in StateCompute.
func TestBeginEndIntervals(t *testing.T) {
	tel := telemetry.New()
	tel.AddCompute(0, 10*sim.Us, 25*sim.Us)
	tel.StartSpan("get", 0, 1, 25*sim.Us).Finish(40 * sim.Us)
	ivs := FromSpans(tel).Intervals()
	if len(ivs) != 2 {
		t.Fatalf("intervals = %d", len(ivs))
	}
	if ivs[0].State != StateCompute || ivs[0].Dur() != 15*sim.Us {
		t.Fatalf("first interval %+v", ivs[0])
	}
	if ivs[1].State != StateGetWait || ivs[1].Dur() != 15*sim.Us {
		t.Fatalf("second interval %+v", ivs[1])
	}
}

func TestZeroLengthIntervalsDropped(t *testing.T) {
	tel := telemetry.New()
	tel.AddCompute(0, 5*sim.Us, 5*sim.Us)
	tel.StartSpan("barrier", 0, 0, 5*sim.Us).Finish(5 * sim.Us)
	if len(FromSpans(tel).Intervals()) != 0 {
		t.Fatal("zero-length interval kept")
	}
}

// A detached hub (nil) gives an empty view whose queries and writer
// work, so callers need no second nil check.
func TestNilTraceIsSafe(t *testing.T) {
	tr := FromSpans(nil)
	if len(tr.Intervals()) != 0 || len(tr.Profiles()) != 0 || tr.MaxInterval(StateGetWait).Dur() != 0 {
		t.Fatalf("view of a nil hub is not empty: %+v", tr.Intervals())
	}
	if err := tr.WritePRV(io.Discard); err != nil {
		t.Fatal(err)
	}
}

// FromSpans keeps what blocked a thread and drops the rest.
func TestFromSpans(t *testing.T) {
	tel := telemetry.New()
	span := func(op, proto string, thread int, start, end sim.Time) *telemetry.Span {
		s := tel.StartSpan(op, thread, 0, start)
		s.SetProto(proto)
		if end >= 0 {
			s.Finish(end)
		}
		return s
	}
	span("get", "eager", 0, 10, 30)
	span("get", "local", 0, 30, 31)           // shared memory: not a wait
	span("get", "rdma", 1, 0, 50).MarkSplit() // the thread ran on
	span("get", "rdma", 1, 60, -1)            // never finished
	span("alloc", "collective", 2, 0, 5)      // no §4.6 state
	span("kv_put", "am", 2, 5, 9)             // user AM: no §4.6 state
	span("barrier", "", 1, 50, 55)
	span("put", "rdma", 0, 31, 31) // zero length
	tel.AddCompute(2, 9, 20)

	want := []Interval{
		{Thread: 2, State: StateCompute, Start: 9, End: 20},
		{Thread: 0, State: StateGetWait, Start: 10, End: 30},
		{Thread: 1, State: StateBarrier, Start: 50, End: 55},
	}
	got := FromSpans(tel).Intervals()
	if len(got) != len(want) {
		t.Fatalf("intervals %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("interval %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestTotalsAndThreadTotal(t *testing.T) {
	tr := of(
		Interval{Thread: 1, State: StateGetWait, Start: 0, End: 5 * sim.Us},
		Interval{Thread: 1, State: StateCompute, Start: 5 * sim.Us, End: 8 * sim.Us},
		Interval{Thread: 0, State: StateGetWait, Start: 0, End: 10 * sim.Us},
	)
	tot := tr.TotalByState()
	if tot[StateGetWait] != 15*sim.Us || tot[StateCompute] != 3*sim.Us {
		t.Fatalf("totals %+v", tot)
	}
	if tr.ThreadTotal(1, StateGetWait) != 5*sim.Us {
		t.Fatalf("thread total %v", tr.ThreadTotal(1, StateGetWait))
	}
}

func TestMaxInterval(t *testing.T) {
	tr := of(
		Interval{Thread: 0, State: StateGetWait, Start: 0, End: 3 * sim.Us},
		Interval{Thread: 1, State: StateGetWait, Start: 10 * sim.Us, End: 20 * sim.Us},
	)
	best := tr.MaxInterval(StateGetWait)
	if best.Thread != 1 || best.Dur() != 10*sim.Us {
		t.Fatalf("max interval %+v", best)
	}
	if tr.MaxInterval(StateBarrier).Dur() != 0 {
		t.Fatal("expected zero interval for unseen state")
	}
}

func TestProfilesSorted(t *testing.T) {
	tr := of(
		Interval{Thread: 0, State: StateCompute, Start: 0, End: 30 * sim.Us},
		Interval{Thread: 0, State: StateGetWait, Start: 30 * sim.Us, End: 40 * sim.Us},
	)
	ps := tr.Profiles()
	if len(ps) != 2 || ps[0].State != StateCompute || ps[1].State != StateGetWait {
		t.Fatalf("profiles %+v", ps)
	}
	if ps[0].Share < 0.74 || ps[0].Share > 0.76 {
		t.Fatalf("share %v", ps[0].Share)
	}
}

func TestWritePRVFormat(t *testing.T) {
	tr := of(Interval{Thread: 2, State: StateBarrier, Start: 5 * sim.Us, End: 7 * sim.Us})
	var sb strings.Builder
	if err := tr.WritePRV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if out != "1:2:5000000:7000000:barrier\n" {
		t.Fatalf("state record wrong:\n%s", out)
	}
}

func TestStateString(t *testing.T) {
	if StateGetWait.String() != "get-wait" || StateCompute.String() != "compute" {
		t.Fatal("state names wrong")
	}
	if State(99).String() != "state(99)" {
		t.Fatal("unknown state name wrong")
	}
}

// Property: for any sequence of compute intervals and GET spans per
// thread, FromSpans keeps only intervals of positive length, in end
// order, intervals of one thread never overlap, and the per-state totals
// are the sums of their durations.
func TestPropertyNoOverlap(t *testing.T) {
	f := func(ops []uint16) bool {
		tel := telemetry.New()
		now := map[int]sim.Time{}
		want := map[State]sim.Time{}
		for _, op := range ops {
			th, dur := int(op%3), sim.Time(op/3%4)*sim.Us
			start := now[th] + sim.Time(op/12%2)*sim.Us
			now[th] = start + dur
			st := StateGetWait
			if op/24%2 == 0 {
				st = StateCompute
				tel.AddCompute(th, start, start+dur)
			} else {
				tel.StartSpan("get", th, 0, start).Finish(start + dur)
			}
			if dur > 0 {
				want[st] += dur
			}
		}
		tr := FromSpans(tel)
		last := map[int]sim.Time{}
		for i, iv := range tr.Intervals() {
			if iv.Dur() <= 0 || i > 0 && iv.End < tr.Intervals()[i-1].End || iv.Start < last[iv.Thread] {
				return false
			}
			last[iv.Thread] = iv.End
		}
		got := tr.TotalByState()
		return len(got) == len(want) && got[StateCompute] == want[StateCompute] && got[StateGetWait] == want[StateGetWait]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// failAfterWriter fails the nth write — covering disk-full midway
// through the trace, not just at the first record.
type failAfterWriter struct {
	n    int
	errs int
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		w.errs++
		return 0, errWriterFull
	}
	w.n--
	return len(p), nil
}

var errWriterFull = &writerFullError{}

type writerFullError struct{}

func (*writerFullError) Error() string { return "device full" }

func TestWritePRVPropagatesWriteErrors(t *testing.T) {
	tr := of(
		Interval{Thread: 0, State: StateCompute, Start: 0, End: 10 * sim.Us},
		Interval{Thread: 0, State: StateBarrier, Start: 15 * sim.Us, End: 16 * sim.Us},
		Interval{Thread: 1, State: StateGetWait, Start: 5 * sim.Us, End: 20 * sim.Us},
	)

	// Count how many writes a full dump takes, then fail at each
	// earlier position in turn: every failure must surface.
	var counter failAfterWriter
	counter.n = 1 << 30
	if err := tr.WritePRV(&counter); err != nil {
		t.Fatal(err)
	}
	writes := (1 << 30) - counter.n
	if writes < 3 {
		t.Fatalf("expected at least 3 writes, got %d", writes)
	}
	for i := 0; i < writes; i++ {
		w := &failAfterWriter{n: i}
		if err := tr.WritePRV(w); err == nil {
			t.Fatalf("write failure at record %d was dropped", i)
		}
	}
}
