package core

import (
	"reflect"
	"sync"
	"testing"

	"xlupc/internal/transport"
)

// The strongest end-to-end property: a randomly generated barrier-
// synchronized UPC program returns exactly the values, and leaves
// exactly the memory, a trivial sequential reference model predicts —
// on both transports, with the cache off or tiny, with and without
// coalescing. A program with split-phase operations runs against the
// blocking API under Run; one without runs under Run and against the
// continuation API under RunCont, identically (same RunStats). The
// program generator and its model are in genProgram; the two
// interpreters walk the same per-thread scripts.
func TestPropertyRandomProgramMatchesReference(t *testing.T) {
	type variant struct {
		name     string
		prof     func() *transport.Profile
		cache    CacheConfig
		coalesce bool
	}
	var variants []variant
	for _, tr := range []struct {
		name string
		prof func() *transport.Profile
	}{{"gm", transport.GM}, {"lapi", transport.LAPI}} {
		for _, cc := range []struct {
			name string
			cc   CacheConfig
		}{{"nocache", NoCache()}, {"cache5", CacheConfig{Enabled: true, Capacity: 5}}} { // small: force evictions
			for _, coal := range []bool{false, true} {
				name := tr.name + "/" + cc.name
				if coal {
					name += "/coalesce"
				}
				variants = append(variants, variant{name, tr.prof, cc.cc, coal})
			}
		}
	}
	for _, v := range variants {
		for seed := int64(1); seed <= 12; seed++ {
			cfg := Config{
				Threads: progThreads, Nodes: progNodes, Profile: v.prof(), Cache: v.cache, Seed: seed,
			}
			if v.coalesce {
				cc := transport.DefaultCoalConfig()
				cfg.Coalesce = &cc
			}
			run := func(pr *program, mode string) RunStats {
				fail := func(thread, step int, msg string) {
					t.Errorf("seed %d, config %s, %s: thread %d op %d (%v): %s",
						seed, v.name, mode, thread, step, pr.steps[thread][step].kind, msg)
				}
				rt, err := NewRuntime(cfg)
				if err != nil {
					t.Fatal(err)
				}
				var st RunStats
				if mode == "cont" {
					st, err = rt.RunCont(func(th *Thread, done func()) { pr.runCont(th, fail, done) })
				} else {
					st, err = rt.Run(func(th *Thread) { pr.runBlocking(th, fail) })
				}
				if err != nil {
					t.Fatalf("seed %d, config %s, %s: %v", seed, v.name, mode, err)
				}
				return st
			}
			run(genProgram(seed, true), "split-phase")
			pr := genProgram(seed, false)
			stG, stC := run(pr, "blocking"), run(pr, "cont")
			if !reflect.DeepEqual(stG, stC) {
				t.Errorf("seed %d, config %s: RunStats diverged:\n blocking: %+v\n cont:     %+v", seed, v.name, stG, stC)
			}
			if t.Failed() {
				return
			}
		}
	}
}

// Two independent runtimes must be able to run concurrently in one Go
// process without interference — no hidden global state.
func TestRuntimesAreIsolated(t *testing.T) {
	run := func(seed int64, out *uint64, wg *sync.WaitGroup) {
		defer wg.Done()
		rt, err := NewRuntime(Config{
			Threads: 4, Nodes: 2, Profile: transport.GM(), Cache: DefaultCache(), Seed: seed,
		})
		if err != nil {
			t.Error(err)
			return
		}
		var sum uint64
		_, err = rt.Run(func(th *Thread) {
			a := th.AllAlloc("A", 64, 8, 16)
			th.ForAll(a, func(i int64) { th.PutUint64(a.At(i), uint64(i)+uint64(seed)) })
			th.Barrier()
			s := th.AllReduceU64(th.GetUint64(a.At(int64(th.ID())*16)), ReduceSum)
			if th.ID() == 0 {
				sum = s
			}
		})
		if err != nil {
			t.Error(err)
			return
		}
		*out = sum
	}
	var a, b, a2 uint64
	var wg sync.WaitGroup
	wg.Add(2)
	go run(100, &a, &wg)
	go run(200, &b, &wg)
	wg.Wait()
	wg.Add(1)
	run(100, &a2, &wg)
	wg.Wait()
	if a == 0 || b == 0 {
		t.Fatal("runs produced no results")
	}
	if a == b {
		t.Fatal("different seeds produced identical sums; suspicious")
	}
	if a != a2 {
		t.Fatalf("concurrent execution changed results: %d vs %d", a, a2)
	}
}
