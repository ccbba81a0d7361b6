// Package trace provides the Paraver-style state view the paper used
// to analyze the Field stressmark (§4.6): per-thread intervals
// labelled with what the thread was doing (computing, waiting on a
// GET, in a barrier, …), with aggregation queries and a writer
// producing a Paraver-like record stream.
//
// The runtime records one thing, the telemetry hub's spans and compute
// intervals; FromSpans is the view of them this package queries.
package trace

import (
	"fmt"
	"io"
	"sort"

	"xlupc/internal/sim"
	"xlupc/internal/telemetry"
)

// State labels what a thread is doing during an interval.
type State uint8

const (
	StateCompute   State = iota // modeled local computation
	StateGetWait                // blocked in a GET
	StatePut                    // issuing a PUT (initiator overhead)
	StateFenceWait              // waiting for PUT completions
	StateBarrier                // in the barrier
	numStates
)

var stateNames = [numStates]string{
	"compute", "get-wait", "put", "fence-wait", "barrier",
}

func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// Interval is one closed per-thread state span.
type Interval struct {
	Thread     int
	State      State
	Start, End sim.Time
}

// Dur is the interval's length.
func (iv Interval) Dur() sim.Time { return iv.End - iv.Start }

// Trace is the intervals of one run, each of positive length, in the
// order they ended. The zero value is an empty trace.
type Trace struct {
	intervals []Interval
}

// waitStates maps a span's operation to the state its initiator is in
// while it is open; alloc, free, atomic and user AMs have none.
var waitStates = map[string]State{
	"get":     StateGetWait,
	"put":     StatePut,
	"fence":   StateFenceWait,
	"barrier": StateBarrier,
}

// FromSpans builds the state view of the run tel recorded: one
// interval per finished remote span of a blocking operation (a local
// access is not a wait, nor is a split-phase span, whose thread runs on
// until the Sync that retires it) plus the hub's compute intervals, in
// end order, ties in the hub's order. A nil hub gives an empty view.
func FromSpans(tel *telemetry.Telemetry) *Trace {
	var ivs []Interval
	for _, s := range tel.Spans() {
		st, ok := waitStates[s.Op]
		if !ok || s.End <= s.Start || s.Proto == "local" || s.Split {
			continue
		}
		ivs = append(ivs, Interval{Thread: s.Thread, State: st, Start: s.Start, End: s.End})
	}
	for _, c := range tel.Computes() {
		if c.End > c.Start {
			ivs = append(ivs, Interval{Thread: c.Thread, State: StateCompute, Start: c.Start, End: c.End})
		}
	}
	sort.SliceStable(ivs, func(i, j int) bool { return ivs[i].End < ivs[j].End })
	return &Trace{intervals: ivs}
}

// Intervals returns the intervals in the order they ended.
func (tr *Trace) Intervals() []Interval { return tr.intervals }

// TotalByState sums interval durations per state across all threads.
func (tr *Trace) TotalByState() map[State]sim.Time {
	out := make(map[State]sim.Time)
	for _, iv := range tr.intervals {
		out[iv.State] += iv.Dur()
	}
	return out
}

// ThreadTotal sums one thread's time in one state.
func (tr *Trace) ThreadTotal(thread int, s State) sim.Time {
	var t sim.Time
	for _, iv := range tr.intervals {
		if iv.Thread == thread && iv.State == s {
			t += iv.Dur()
		}
	}
	return t
}

// MaxInterval returns the longest interval of the given state, or a
// zero Interval if none exist.
func (tr *Trace) MaxInterval(s State) Interval {
	var best Interval
	for _, iv := range tr.intervals {
		if iv.State == s && iv.Dur() > best.Dur() {
			best = iv
		}
	}
	return best
}

// WritePRV emits the trace as Paraver-like records, one per line:
//
//	1:<thread>:<start_ps>:<end_ps>:<state>
//
// sorted by start time. (Real .prv headers carry machine topology the
// simulation does not need; the record bodies follow the same shape.)
func (tr *Trace) WritePRV(w io.Writer) error {
	ivs := append([]Interval(nil), tr.intervals...)
	sort.SliceStable(ivs, func(i, j int) bool { return ivs[i].Start < ivs[j].Start })
	for _, iv := range ivs {
		if _, err := fmt.Fprintf(w, "1:%d:%d:%d:%s\n", iv.Thread, iv.Start, iv.End, iv.State); err != nil {
			return err
		}
	}
	return nil
}

// Profile is a per-state share breakdown.
type Profile struct {
	State State
	Total sim.Time
	Share float64 // fraction of the sum over all states
}

// Profiles returns the state breakdown sorted by descending total.
func (tr *Trace) Profiles() []Profile {
	totals := tr.TotalByState()
	var sum sim.Time
	for _, t := range totals {
		sum += t
	}
	out := make([]Profile, 0, len(totals))
	for s, t := range totals {
		share := 0.0
		if sum > 0 {
			share = float64(t) / float64(sum)
		}
		out = append(out, Profile{State: s, Total: t, Share: share})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].State < out[j].State
	})
	return out
}
