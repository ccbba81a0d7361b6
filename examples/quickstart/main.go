// Quickstart: the smallest complete XLUPC-style program.
//
// It builds a simulated 4-node Myrinet/GM cluster with 8 UPC threads
// (hybrid mode: 2 per node), collectively allocates a block-cyclic
// shared array, has every thread write its own elements and read its
// right neighbour's, and prints the virtual execution time with the
// remote address cache off and on.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"xlupc/internal/core"
	"xlupc/internal/sim"
	"xlupc/internal/transport"
)

func run(cache core.CacheConfig) (sim.Time, core.RunStats) {
	rt, err := core.NewRuntime(core.Config{
		Threads: 8,
		Nodes:   4,
		Profile: transport.GM(),
		Cache:   cache,
		Seed:    1,
	})
	if err != nil {
		log.Fatal(err)
	}
	st, err := rt.Run(func(t *core.Thread) {
		const elems, block = 256, 8
		a := t.AllAlloc("counters", elems, 8, block)

		// Phase 1: every thread initializes the elements affine to it
		// (local writes through shared memory) — upc_forall with
		// affinity &a[i].
		t.ForAll(a, func(i int64) {
			t.PutUint64(a.At(i), uint64(t.ID()*1000)+uint64(i))
		})
		t.Barrier()

		// Phase 2: read the block that belongs to the next thread —
		// a remote GET whenever the neighbour lives on another node.
		next := (t.ID() + 1) % t.Threads()
		var sum uint64
		for i := int64(0); i < elems; i++ {
			if a.Owner(i) == next {
				sum += t.GetUint64(a.At(i))
			}
		}
		t.Barrier()

		if t.ID() == 0 {
			fmt.Printf("  thread 0 read neighbour sum %d\n", sum)
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	return st.Elapsed, st
}

func main() {
	fmt.Println("quickstart: 8 UPC threads on a simulated 4-node GM cluster")

	fmt.Println("without address cache:")
	z, _ := run(core.NoCache())
	fmt.Printf("  virtual time %v\n", z)

	fmt.Println("with address cache (100 entries, LRU):")
	w, st := run(core.DefaultCache())
	fmt.Printf("  virtual time %v\n", w)
	fmt.Printf("  cache: %d hits / %d lookups (%.0f%% hit rate)\n",
		st.Cache.Hits, st.Cache.Lookups(), 100*st.Cache.HitRate())
	fmt.Printf("  improvement: %.1f%%\n", 100*(float64(z)-float64(w))/float64(z))
}
