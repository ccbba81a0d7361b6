package main

import (
	"math"
	"testing"
)

// A canned `go tool pprof -top -unit=ms` report: generic and inlined
// symbols, a package the table does not know, zero-flat rows.
const cannedTop = `File: benchmark
Type: cpu
Time: 2026-09-27 18:28:09 UTC
Duration: 808.51ms, Total samples = 1000ms (77.92%)
Showing nodes accounting for 1000ms, 100% of 1000ms total
      flat  flat%   sum%        cum   cum%
     300ms 30.00% 30.00%      300ms 30.00%  xlupc/internal/sim.(*eventHeap).popEv
     100ms 10.00% 40.00%      100ms 10.00%  xlupc/internal/sim.(*Queue[go.shape.interface {}]).Push
     100ms 10.00% 50.00%      620ms 62.00%  xlupc/internal/core.(*Thread).ID (inline)
      90ms  9.00% 59.00%       90ms  9.00%  xlupc/internal/addrcache.(*Cache).LookupEpoch
      60ms  6.00% 65.00%       60ms  6.00%  xlupc/internal/telemetry.(*Span).Phase
      50ms  5.00% 70.00%       50ms  5.00%  runtime.futex
      50ms  5.00% 75.00%       50ms  5.00%  runtime.mallocgcTiny
      50ms  5.00% 80.00%       50ms  5.00%  runtime.memmove
      40ms  4.00% 84.00%       40ms  4.00%  internal/runtime/maps.ctrlGroup.matchH2
      40ms  4.00% 88.00%       40ms  4.00%  example.com/unknown/pkg.(*T).Work
      40ms  4.00% 92.00%       40ms  4.00%  main.chaseHopsC.func1
      40ms  4.00% 96.00%       40ms  4.00%  xlupc/internal/kv.(*Table).GetC.func1
      40ms  4.00%   100%       40ms  4.00%  xlupc/internal/bench.RunKV
         0     0%   100%      620ms 62.00%  xlupc/internal/sim.(*Kernel).Run
`

func TestSharesFromTop(t *testing.T) {
	shares, err := sharesFromTop(cannedTop)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"sim.cpu_share": 0.40, "core.cpu_share": 0.10, "addrcache.cpu_share": 0.09,
		"obs.cpu_share": 0.06, "host.sched_share": 0.05, "host.gc_share": 0.05,
		"host.other_share": 0.13, // memmove, the map internals and the unknown package
		"bench.cpu_share":  0.08, "kv.cpu_share": 0.04,
	}
	sum := 0.0
	for _, name := range shareNames {
		got, ok := shares[name]
		if !ok {
			t.Errorf("%s missing", name)
		}
		if math.Abs(got-want[name]) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want[name])
		}
		sum += got
	}
	if len(shares) != len(shareNames) || math.Abs(sum-1) > 1e-9 {
		t.Errorf("%d shares summing to %v, want %d summing to 1", len(shares), sum, len(shareNames))
	}
	if _, err := sharesFromTop("File: x\n      flat  flat%   sum%        cum   cum%\n"); err == nil {
		t.Error("an empty profile must be an error, not a row of zeros")
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"xlupc/internal/sim.(*Queue[go.shape.interface {}]).Push": "xlupc/internal/sim",
		"xlupc/internal/core.Layout.Owner":                        "xlupc/internal/core",
		"runtime.mallocgc":                                        "runtime",
		"main.chaseHopsC.func1":                                   "main",
		"unique.addUniqueMap[go.shape.struct { a bool }].func1":   "unique",
		"gogo": "gogo",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
