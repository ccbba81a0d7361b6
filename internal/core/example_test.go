package core_test

import (
	"fmt"
	"log"

	"xlupc/internal/core"
	"xlupc/internal/transport"
)

// The smallest complete program: allocate a shared array, write with
// affinity, synchronize, read remotely.
func ExampleRuntime_Run() {
	rt, err := core.NewRuntime(core.Config{
		Threads: 4, Nodes: 2,
		Profile: transport.GM(),
		Cache:   core.DefaultCache(),
		Seed:    1,
	})
	if err != nil {
		log.Fatal(err)
	}
	stats, err := rt.Run(func(t *core.Thread) {
		a := t.AllAlloc("A", 16, 8, 4)
		t.ForAll(a, func(i int64) { t.PutUint64(a.At(i), uint64(i*i)) })
		t.Barrier()
		if t.ID() == 0 {
			fmt.Println("A[9] =", t.GetUint64(a.At(9)))
		}
		t.Barrier()
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("remote gets:", stats.Gets > 0)
	// Output:
	// A[9] = 81
	// remote gets: true
}

// Collectives: a hierarchical sum over every thread.
func ExampleThread_AllReduceU64() {
	rt, err := core.NewRuntime(core.Config{
		Threads: 8, Nodes: 4, Profile: transport.LAPI(), Cache: core.NoCache(), Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := rt.Run(func(t *core.Thread) {
		total := t.AllReduceU64(uint64(t.ID()), core.ReduceSum)
		if t.ID() == 0 {
			fmt.Println("sum of ids:", total)
		}
	}); err != nil {
		log.Fatal(err)
	}
	// Output:
	// sum of ids: 28
}

// Lock-free remote accumulation with fetch-and-add.
func ExampleThread_FetchAdd() {
	rt, err := core.NewRuntime(core.Config{
		Threads: 6, Nodes: 3, Profile: transport.GM(), Cache: core.DefaultCache(), Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := rt.Run(func(t *core.Thread) {
		ctr := t.AllAlloc("counter", 1, 8, 1)
		t.Barrier()
		t.FetchAdd(ctr.At(0), 10)
		t.Barrier()
		if t.ID() == 0 {
			fmt.Println("counter:", t.GetUint64(ctr.At(0)))
		}
		t.Barrier()
	}); err != nil {
		log.Fatal(err)
	}
	// Output:
	// counter: 60
}

// Multi-blocked (2-D tiled) arrays keep whole tiles on one owner.
func ExampleThread_AllAlloc2D() {
	rt, err := core.NewRuntime(core.Config{
		Threads: 4, Nodes: 2, Profile: transport.GM(), Cache: core.NoCache(), Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := rt.Run(func(t *core.Thread) {
		m := t.AllAlloc2D("M", 8, 8, 8, 4, 4)
		if t.ID() == m.Owner(1, 2) { // MYTHREAD == upc_threadof(&M[1][2]): one element, not a scan
			t.PutUint64(m.At(1, 2), 42)
		}
		t.Barrier()
		if t.ID() == 3 {
			fmt.Println("M[1,2] =", t.GetUint64(m.At(1, 2)))
			fmt.Println("same tile, same owner:", m.Owner(0, 0) == m.Owner(3, 3))
		}
		t.Barrier()
	}); err != nil {
		log.Fatal(err)
	}
	// Output:
	// M[1,2] = 42
	// same tile, same owner: true
}
