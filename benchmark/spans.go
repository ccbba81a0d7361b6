package main

// spans.go records spans from the benchmark's own side of each call
// into the program. Spans are kept in memory and written with the
// results; spans inside the program are a later change.

import "time"

// span is one timed interval. Parent is the index of the enclosing span
// in the same list, or -1.
type span struct {
	Name     string  `json:"name"`
	Workload string  `json:"workload"`
	Rep      int     `json:"rep"`
	Parent   int     `json:"parent"`
	StartS   float64 `json:"start_s"` // seconds since the recorder started
	EndS     float64 `json:"end_s"`
}

// recorder collects spans. A nil recorder records nothing, so untraced
// reps pass nil.
type recorder struct {
	t0       time.Time
	workload string
	spans    []span
}

func newRecorder(workload string) *recorder {
	return &recorder{t0: time.Now(), workload: workload}
}

// begin opens a span at `at` and returns its index.
func (r *recorder) begin(name string, rep, parent int, at time.Time) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Workload: r.workload, Rep: rep, Parent: parent, StartS: at.Sub(r.t0).Seconds()})
	return len(r.spans) - 1
}

// end closes span id at `at`.
func (r *recorder) end(id int, at time.Time) {
	if r == nil {
		return
	}
	r.spans[id].EndS = at.Sub(r.t0).Seconds()
}

// add records a finished span.
func (r *recorder) add(name string, rep, parent int, from, to time.Time) {
	r.end(r.begin(name, rep, parent, from), to)
}
