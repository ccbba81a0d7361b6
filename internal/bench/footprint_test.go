package bench

// The footprint table: what one unit of a layer keeps alive on the
// heap. Each row builds k units and 2k units, reads HeapAlloc after two
// GCs with what it built still reachable, and divides the difference
// by k, so what the build holds regardless of size cancels out. It
// reads at GOMAXPROCS 1. A reading is not exact to the byte (a map or
// a slab grows in steps, and the runtime's own heap moves a little), so
// each row has a bound: the reading it was added at plus at most 5 %.
// Rows are only ever lowered.

import (
	"runtime"
	"testing"

	"xlupc/internal/addrcache"
	"xlupc/internal/core"
	"xlupc/internal/transport"
)

// A footprint is one row: build returns something that holds n units.
type footprint struct {
	name  string
	build func(n int) any
	k     int
	bound float64 // live bytes per unit
}

var footprints = []footprint{
	// One address-cache entry: its slot, its share of the slab's
	// doubling, and its index entry. Reads 94.0–94.2 B.
	{name: "addrcache.entry", build: fullCache, k: 64, bound: 98},
	// One UPC thread of a runtime that NewRuntime built and nothing ran.
	// Reads 607.5 B.
	{name: "core.thread", build: idleRuntime, k: 256, bound: 637},
}

// TestFootprint reads every row's live bytes per unit and fails one
// above its bound.
func TestFootprint(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, f := range footprints {
		t.Run(f.name, func(t *testing.T) {
			per := (liveBytes(f.build, 2*f.k) - liveBytes(f.build, f.k)) / float64(f.k)
			t.Logf("%.1f live bytes per unit", per)
			if per > f.bound {
				t.Errorf("%.1f live bytes per unit (> %g)", per, f.bound)
			}
		})
	}
}

// liveBytes is how much the heap grows, after two GCs, while what
// build(n) returned is reachable.
func liveBytes(build func(n int) any, n int) float64 {
	heap := func() float64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return float64(m.HeapAlloc)
	}
	before := heap()
	x := build(n)
	after := heap()
	runtime.KeepAlive(x)
	return after - before
}

// fullCache is a cache of capacity n holding n entries over 16 nodes.
func fullCache(n int) any {
	c := addrcache.New(n, addrcache.LRU, 0)
	for i := 0; i < n; i++ {
		c.Insert(addrcache.Key{Handle: uint64(i), Node: int32(i % 16)}, 0)
	}
	return c
}

// idleRuntime is a runtime of n threads on 4 nodes with the default
// cache.
func idleRuntime(n int) any {
	rt, err := core.NewRuntime(core.Config{Threads: n, Nodes: 4, Profile: transport.GM(), Cache: core.DefaultCache(), Seed: 1})
	if err != nil {
		panic(err)
	}
	return rt
}
