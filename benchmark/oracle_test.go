package main

import (
	"os"
	"reflect"
	"testing"
)

// toyChase is small enough to simulate in milliseconds: 8 threads on 2 nodes.
func toyChase(cached, cont bool) chaseSpec {
	return chaseSpec{Threads: 8, Nodes: 2, Elems: 32, Hops: 64, Cached: cached, Cont: cont}
}

func simulateChase(t *testing.T, s chaseSpec, seed int64) []uint64 {
	t.Helper()
	rt, err := newChaseRuntime(s, seed)
	if err != nil {
		t.Fatal(err)
	}
	inits := 0
	got, _, err := rt.chase(s, seed, func() { inits++ })
	if err != nil {
		t.Fatal(err)
	}
	if inits != 1 {
		t.Fatalf("initDone called %d times, want once", inits)
	}
	return got
}

func TestOracleMatchesSimulationInBothStyles(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		for _, s := range []chaseSpec{toyChase(true, true), toyChase(false, false), toyChase(true, false), toyChase(false, true)} {
			want := chaseOracle(s, chaseArray(s, seed))
			if bad := mismatched(simulateChase(t, s, seed), want); len(bad) != 0 {
				t.Errorf("seed %d %+v: threads %v disagree with the oracle", seed, s, bad)
			}
		}
	}
}

// visitors lists the threads whose chase reads element e.
func visitors(s chaseSpec, a []uint64, e int64) []int {
	var out []int
	for tid := 0; tid < s.Threads; tid++ {
		pos := chaseStart(tid, int64(len(a)))
		for h := 0; h < s.Hops; h++ {
			if pos == e {
				out = append(out, tid)
				break
			}
			pos = int64(a[pos])
		}
	}
	return out
}

// A wrong expectation for one array element must fail exactly the
// threads that read that element, and fail_share must be their share
// of the operations.
func TestOracleCatchesAFault(t *testing.T) {
	const seed = 3
	s := toyChase(true, true)
	a := chaseArray(s, seed)
	// Pick an element some threads read and others do not.
	var e int64 = -1
	var affected []int
	for i := range a {
		if v := visitors(s, a, int64(i)); len(v) > 0 && len(v) < s.Threads {
			e, affected = int64(i), v
			break
		}
	}
	if e < 0 {
		t.Fatal("no element is read by some threads only; change the toy sizes")
	}
	// The oracle now expects a[e] to point one element further on.
	perturbed := func(s chaseSpec, seed int64) []uint64 {
		b := chaseArray(s, seed)
		b[e] = (b[e] + 1) % uint64(len(b))
		return b
	}
	want := chaseOracle(s, perturbed(s, seed))
	if bad := mismatched(simulateChase(t, s, seed), want); !reflect.DeepEqual(bad, affected) {
		t.Fatalf("threads reported failed %v, want exactly %v", bad, affected)
	}

	// The same fault through the whole measuring path.
	w := chaseWorkload("chase_cached", s, seed, perturbed)
	d, err := measure(w, plan{seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if d.Correct || d.Failed != int64(len(affected)*s.Hops) || d.Attempted != s.ops() {
		t.Fatalf("correct=%v failed=%d attempted=%d", d.Correct, d.Failed, d.Attempted)
	}
	if want := float64(d.Failed) / float64(d.Attempted); d.FailShare != want {
		t.Fatalf("fail_share %v, want %v", d.FailShare, want)
	}
}

// The chase and KV programs are copies of internal/bench's; at the sizes
// the issue quotes they reproduce its seed-1 counts (21,217,359 /
// 6,487,622 / 15,464,245 kernel events, Found = 511,554). Half a minute
// of simulation, so only on request.
func TestIssueSizeCounts(t *testing.T) {
	if os.Getenv("BENCH_ISSUE_SIZES") == "" {
		t.Skip("set BENCH_ISSUE_SIZES=1 to simulate the issue's full sizes")
	}
	for _, w := range []*workload{
		chaseWorkload("chase_cached", chaseSpec{Threads: 8192, Nodes: 256, Elems: 32, Hops: 256, Cached: true, Cont: true}, 1, chaseArray),
		chaseWorkload("chase_am", chaseSpec{Threads: 2048, Nodes: 64, Elems: 32, Hops: 256}, 1, chaseArray),
		kvWorkload(kvSpec{Threads: 256, Nodes: 32, Keys: 65536, OpsPerThread: 4000, Theta: 0.9, ReadFrac: 0.5}, 1),
	} {
		if err := w.prepare(nil); err != nil {
			t.Fatal(err)
		}
		r := w.run(0, nil, "")
		if r.Err != "" || r.Failed != 0 {
			t.Fatalf("%s: failed=%d err=%q", w.name, r.Failed, r.Err)
		}
		t.Logf("%s: %d events, %.2f events/op, %d hits / %d misses, %d RDMA ops, digest %s",
			w.name, r.Counts.Events, float64(r.Counts.Events)/float64(w.opsPerRep),
			r.Counts.CacheHits, r.Counts.CacheMisses, r.Counts.RDMAOps, r.Digest)
	}
}
