// randomaccess: a GUPS-style random-update kernel — the application
// class the Pointer/Update stressmarks prototype, and the worst case
// for the address cache's working set (every node's base address is
// eventually needed, as in Figure 8a).
//
// Every thread performs random read-modify-write updates over a big
// shared table. The example sweeps cache capacities to show the
// memory-versus-speedup compromise of paper §4.5: a 4-entry cache
// barely helps at 8 nodes, while 100 entries captures the whole
// working set.
//
//	go run ./examples/randomaccess
package main

import (
	"fmt"
	"log"

	"xlupc/internal/core"
	"xlupc/internal/sim"
	"xlupc/internal/transport"
)

const (
	threads = 32
	nodes   = 8
	tableSz = 1 << 12 // shared table entries
	updates = 64      // per thread
)

func run(cache core.CacheConfig) (sim.Time, float64, uint64) {
	rt, err := core.NewRuntime(core.Config{
		Threads: threads, Nodes: nodes, Profile: transport.GM(), Cache: cache, Seed: 9,
	})
	if err != nil {
		log.Fatal(err)
	}
	var check uint64
	st, err := rt.Run(func(t *core.Thread) {
		table := t.AllAlloc("table", tableSz, 8, tableSz/threads)
		t.ForAll(table, func(i int64) { t.PutUint64(table.At(i), uint64(i)) })
		t.Barrier()

		// Random updates: read, xor, write back. (Like HPCC
		// RandomAccess, races between threads are tolerated; the
		// checksum below is computed per thread pre-race.)
		rng := t.Rand()
		var local uint64
		for u := 0; u < updates; u++ {
			idx := int64(rng.Intn(tableSz))
			v := t.GetUint64(table.At(idx))
			local ^= v
			t.PutUint64(table.At(idx), v^local)
			t.Compute(500 * sim.Ns)
		}
		t.Barrier()
		if t.ID() == 0 {
			check = local
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	return st.Elapsed, st.Cache.HitRate(), check
}

func main() {
	fmt.Printf("randomaccess: %d threads on %d simulated GM nodes, %d-entry shared table\n",
		threads, nodes, tableSz)
	base, _, _ := run(core.NoCache())
	fmt.Printf("%-22s %12s %10s %12s\n", "configuration", "virtual time", "hit rate", "improvement")
	fmt.Printf("%-22s %12v %10s %12s\n", "no cache", base, "-", "-")
	for _, capEntries := range []int{4, 10, 100} {
		cc := core.CacheConfig{Enabled: true, Capacity: capEntries}
		el, hr, _ := run(cc)
		fmt.Printf("%-22s %12v %9.0f%% %11.1f%%\n",
			fmt.Sprintf("cache, %d entries", capEntries), el, 100*hr,
			100*(float64(base)-float64(el))/float64(base))
	}
}
