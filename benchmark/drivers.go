package main

// drivers.go times the layer drivers of api.go: short loops that call
// exactly one layer's public functions, reported per operation.

import (
	"fmt"
	"runtime"
	"time"
)

// column is a set of the per-operation figures a driver reports.
type column uint8

const (
	colNs     column = 1 << iota // host nanoseconds per operation
	colAllocs                    // heap allocations per operation
	colEvents                    // kernel events per operation
)

var columnSuffix = []struct {
	col          column
	suffix, unit string
}{
	{colNs, "_ns", "ns"},
	{colAllocs, "_allocs", "1/op"},
	{colEvents, "_events", "1/op"},
}

// driver is one row of driverTable.
type driver struct {
	name    string
	n       int // loop iterations of one pass
	perIter int // operations per iteration; 0 means 1
	cols    column
	run     func(*drv) error
}

// drv is the measuring window a driver opens with start and closes with stop.
type drv struct {
	n       int
	t0      time.Time
	mallocs uint64
	elapsed time.Duration
	allocs  uint64
	events  int64
	stopped bool
}

func mallocCount() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func (d *drv) start() {
	d.mallocs = mallocCount()
	d.t0 = time.Now()
}

func (d *drv) stop(events int64) {
	d.elapsed = time.Since(d.t0)
	d.allocs = mallocCount() - d.mallocs
	d.events = events
	d.stopped = true
}

// runDriver makes `passes` passes of dr, each of dr.n/shrink iterations,
// and returns the median of each of its columns by metric name.
func runDriver(dr driver, passes, shrink int) (map[string]float64, error) {
	n := dr.n / shrink
	if n < 1 {
		n = 1
	}
	perIter := dr.perIter
	if perIter == 0 {
		perIter = 1
	}
	ops := float64(n * perIter)
	samples := map[column][]float64{}
	for p := 0; p < passes; p++ {
		runtime.GC()
		d := &drv{n: n}
		if err := dr.run(d); err != nil {
			return nil, fmt.Errorf("driver %s: %w", dr.name, err)
		}
		if !d.stopped {
			return nil, fmt.Errorf("driver %s: measuring window never closed", dr.name)
		}
		samples[colNs] = append(samples[colNs], float64(d.elapsed.Nanoseconds())/ops)
		samples[colAllocs] = append(samples[colAllocs], float64(d.allocs)/ops)
		samples[colEvents] = append(samples[colEvents], float64(d.events)/ops)
	}
	out := map[string]float64{}
	for _, c := range columnSuffix {
		if dr.cols&c.col != 0 {
			out[dr.name+c.suffix] = median(samples[c.col])
		}
	}
	return out, nil
}

// runDrivers runs the whole table.
func runDrivers(passes, shrink int) (map[string]float64, error) {
	out := map[string]float64{}
	for _, dr := range driverTable() {
		m, err := runDriver(dr, passes, shrink)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			out[k] = v
		}
	}
	return out, nil
}
