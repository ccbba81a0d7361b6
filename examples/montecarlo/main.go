// montecarlo: a π estimator exercising the runtime's collectives and
// lock-free atomics instead of point-to-point transfers.
//
// Thread 0 broadcasts the experiment parameters; every thread throws
// darts (modeled local computation plus a deterministic PRNG), counts
// its hits with remote fetch-and-add into a shared counter owned by
// thread 0, and the final estimate is cross-checked with an AllReduce —
// the two accumulation mechanisms must agree exactly.
//
//	go run ./examples/montecarlo
package main

import (
	"encoding/binary"
	"fmt"
	"log"

	"xlupc/internal/core"
	"xlupc/internal/sim"
	"xlupc/internal/transport"
)

const (
	threads = 16
	nodes   = 4
	darts   = 400 // per thread
)

func main() {
	rt, err := core.NewRuntime(core.Config{
		Threads: threads, Nodes: nodes, Profile: transport.LAPI(),
		Cache: core.DefaultCache(), Seed: 13,
	})
	if err != nil {
		log.Fatal(err)
	}
	var estimate float64
	st, err := rt.Run(func(t *core.Thread) {
		// Thread 0 distributes the parameters (an 8-byte dart count).
		var params []byte
		if t.ID() == 0 {
			params = make([]byte, 8)
			binary.LittleEndian.PutUint64(params, darts)
		}
		params = t.Broadcast(0, params)
		n := binary.LittleEndian.Uint64(params)

		hitCounter := t.AllAlloc("hits", 1, 8, 1)
		t.Barrier()

		rng := t.Rand()
		hits := uint64(0)
		for i := uint64(0); i < n; i++ {
			x, y := rng.Float64(), rng.Float64()
			if x*x+y*y <= 1 {
				hits++
			}
		}
		t.Compute(sim.Time(n) * 40 * sim.Ns)

		// Accumulate via remote fetch-and-add (no lock),
		// then cross-check with an AllReduce.
		t.FetchAdd(hitCounter.At(0), hits)
		total := t.AllReduceU64(hits, core.ReduceSum)
		t.Barrier()

		counted := t.GetUint64(hitCounter.At(0))
		if counted != total {
			log.Fatalf("thread %d: atomic total %d != allreduce total %d", t.ID(), counted, total)
		}
		if t.ID() == 0 {
			estimate = 4 * float64(total) / float64(uint64(t.Threads())*n)
		}
		t.Barrier()
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("montecarlo: %d threads x %d darts on %d LAPI nodes\n", threads, darts, nodes)
	fmt.Printf("pi ≈ %.4f (atomics and AllReduce agree)\n", estimate)
	fmt.Printf("virtual time %v, %d messages, cache hit rate %.0f%%\n",
		st.Elapsed, st.Messages, 100*st.Cache.HitRate())
}
