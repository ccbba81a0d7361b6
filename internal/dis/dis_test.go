package dis

import (
	"testing"

	"xlupc/internal/core"
	"xlupc/internal/sim"
	"xlupc/internal/transport"
)

// runOne executes a stressmark and returns (elapsed, combined checksum).
func runOne(t *testing.T, fn Func, threads, nodes int, prof *transport.Profile, cc core.CacheConfig) (sim.Time, uint64) {
	t.Helper()
	rt, err := core.NewRuntime(core.Config{
		Threads: threads, Nodes: nodes, Profile: prof, Cache: cc, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, sum, err := Run(rt, fn, Params{})
	if err != nil {
		t.Fatal(err)
	}
	return st.Elapsed, sum
}

// Each stressmark must produce identical results with the cache on and
// off, on both transports, and the cache must never make it slower by
// more than the paper's 2% miss-overhead bound.
func TestStressmarksCacheInvariant(t *testing.T) {
	for _, s := range Suite() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			for _, prof := range []*transport.Profile{transport.GM(), transport.LAPI()} {
				tOff, cOff := runOne(t, s.Fn, 8, 4, prof, core.NoCache())
				tOn, cOn := runOne(t, s.Fn, 8, 4, prof, core.DefaultCache())
				if cOff != cOn {
					t.Fatalf("%s/%s: checksum changed by cache: %x vs %x", s.Name, prof.Name, cOff, cOn)
				}
				// The cache must never cost more than a few percent.
				// Field on LAPI is the paper's worst case (Figure 9b
				// shows it at or slightly below zero: one-time pin
				// costs with no overlap benefit to recoup them).
				bound := 1.02
				if s.Name == "field" && prof.CommCapacity > 0 {
					bound = 1.05
				}
				if float64(tOn) > float64(tOff)*bound {
					t.Fatalf("%s/%s: cache slowed run beyond bound: on=%v off=%v", s.Name, prof.Name, tOn, tOff)
				}
			}
		})
	}
}

// Pointer and Update are latency-bound random-access codes: the cache
// must deliver a clear improvement on GM.
func TestPointerUpdateImproveOnGM(t *testing.T) {
	for _, name := range []string{"pointer", "update"} {
		fn, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		tOff, _ := runOne(t, fn, 8, 4, transport.GM(), core.NoCache())
		tOn, _ := runOne(t, fn, 8, 4, transport.GM(), core.DefaultCache())
		imp := 100 * (float64(tOff) - float64(tOn)) / float64(tOff)
		if imp < 5 {
			t.Errorf("%s improvement on GM = %.1f%%, want >= 5%%", name, imp)
		}
	}
}

// Field's gain comes from bypassing busy target CPUs; with LAPI's
// overlap the paper found no measurable effect. The qualitative
// relation GM-gain > LAPI-gain must hold.
func TestFieldOverlapContrast(t *testing.T) {
	imp := func(prof *transport.Profile) float64 {
		tOff, _ := runOne(t, Field, 8, 4, prof, core.NoCache())
		tOn, _ := runOne(t, Field, 8, 4, prof, core.DefaultCache())
		return 100 * (float64(tOff) - float64(tOn)) / float64(tOff)
	}
	gm, lapi := imp(transport.GM()), imp(transport.LAPI())
	if gm <= lapi {
		t.Errorf("field: GM improvement %.1f%% should exceed LAPI %.1f%%", gm, lapi)
	}
}

// The stressmarks must be deterministic run to run.
func TestStressmarksDeterministic(t *testing.T) {
	for _, s := range Suite() {
		e1, c1 := runOne(t, s.Fn, 4, 2, transport.GM(), core.DefaultCache())
		e2, c2 := runOne(t, s.Fn, 4, 2, transport.GM(), core.DefaultCache())
		if e1 != e2 || c1 != c2 {
			t.Errorf("%s not deterministic: %v/%x vs %v/%x", s.Name, e1, c1, e2, c2)
		}
	}
}

// Field must actually find tokens (otherwise the benchmark is vacuous).
func TestFieldFindsTokens(t *testing.T) {
	_, check := runOne(t, Field, 4, 2, transport.GM(), core.NoCache())
	if check == 0 {
		t.Fatal("field found no tokens; workload vacuous")
	}
}

// Pointer's cache working set spans the machine: with enough nodes,
// a small cache must show misses after warmup (hit-rate degradation of
// Figure 8a), while Neighborhood's stays near-perfect.
func TestCacheWorkingSetContrast(t *testing.T) {
	run := func(fn Func, capEntries int) float64 {
		rt, err := core.NewRuntime(core.Config{
			Threads: 16, Nodes: 8, Profile: transport.GM(),
			Cache: core.CacheConfig{Enabled: true, Capacity: capEntries},
			Seed:  7,
		})
		if err != nil {
			t.Fatal(err)
		}
		st, _, err := Run(rt, fn, Params{})
		if err != nil {
			t.Fatal(err)
		}
		return st.Cache.HitRate()
	}
	ptr := run(Pointer, 4)
	nbr := run(Neighborhood, 4)
	if !(nbr > ptr) {
		t.Errorf("neighborhood hit rate %.2f should exceed pointer %.2f on a tiny cache", nbr, ptr)
	}
	// A big cache rescues Pointer at this scale (7 remote nodes < 100).
	big := run(Pointer, 100)
	if !(big > ptr) {
		t.Errorf("pointer with 100 entries %.2f should beat 4 entries %.2f", big, ptr)
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("pointer"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown stressmark accepted")
	}
	if len(Suite()) != 4 {
		t.Fatal("suite should have 4 stressmarks")
	}
}

// Checksums are functions of the data alone, so they must agree across
// transports as well — GM and LAPI runs compute the same answers at
// different speeds.
func TestChecksumsTransportIndependent(t *testing.T) {
	for _, s := range Suite() {
		_, gm := runOne(t, s.Fn, 8, 4, transport.GM(), core.DefaultCache())
		_, lapi := runOne(t, s.Fn, 8, 4, transport.LAPI(), core.DefaultCache())
		if gm != lapi {
			t.Errorf("%s: checksum differs across transports: %x vs %x", s.Name, gm, lapi)
		}
	}
}

// Scaling the machine with a fixed per-thread working set keeps every
// stressmark's virtual time bounded (weak-scaling sanity): time at
// 32 threads must stay within a small factor of time at 8 threads.
func TestWeakScalingBounded(t *testing.T) {
	for _, s := range Suite() {
		e8, _ := runOne(t, s.Fn, 8, 4, transport.GM(), core.DefaultCache())
		e32, _ := runOne(t, s.Fn, 32, 16, transport.GM(), core.DefaultCache())
		if float64(e32) > 4*float64(e8) {
			t.Errorf("%s: weak scaling blew up: %v at 8 threads, %v at 32", s.Name, e8, e32)
		}
	}
}

// Large-scale smoke: the full Figure 9 sweeps run configurations up to
// 2048 threads / 512 nodes; exercise one big one here (skipped with
// -short) so regressions in goroutine or memory scaling surface in CI.
func TestLargeScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("large-scale smoke skipped in -short mode")
	}
	e, check := runOne(t, Pointer, 512, 128, transport.GM(), core.DefaultCache())
	if e <= 0 || check == 0 {
		t.Fatalf("large run produced elapsed=%v check=%x", e, check)
	}
}

// §4.6: "with four threads competing for the same network device any
// improvement in network device access time is magnified fourfold" —
// Pointer's improvement in hybrid mode (4 threads/node) must clearly
// exceed the single-thread-per-node improvement at the same node
// count, which itself matches the GET microbenchmark (~30%).
func TestHybridMagnifiesPointerImprovement(t *testing.T) {
	imp := func(threads, nodes int) float64 {
		z, _ := runOne(t, Pointer, threads, nodes, transport.GM(), core.NoCache())
		w, _ := runOne(t, Pointer, threads, nodes, transport.GM(), core.DefaultCache())
		return 100 * (float64(z) - float64(w)) / float64(z)
	}
	solo := imp(8, 8)    // 1 thread/node
	hybrid := imp(32, 8) // 4 threads/node, same 8 nodes
	if solo < 20 || solo > 45 {
		t.Errorf("solo improvement %.1f%% should sit near the microbenchmark's ~30%%", solo)
	}
	if hybrid < solo+15 {
		t.Errorf("hybrid improvement %.1f%% not magnified over solo %.1f%%", hybrid, solo)
	}
}

// §4.6: "We do not see performance improvement caused by two threads
// per node, because only thread 0 initiates communication" — Update's
// improvement must be insensitive to the hybrid fan-out, in contrast
// to Pointer's magnification.
func TestUpdateInsensitiveToHybridFanout(t *testing.T) {
	imp := func(threads, nodes int) float64 {
		z, _ := runOne(t, Update, threads, nodes, transport.GM(), core.NoCache())
		w, _ := runOne(t, Update, threads, nodes, transport.GM(), core.DefaultCache())
		return 100 * (float64(z) - float64(w)) / float64(z)
	}
	solo, hybrid := imp(8, 8), imp(32, 8)
	if diff := hybrid - solo; diff > 8 || diff < -8 {
		t.Errorf("update improvement moved with fan-out: solo %.1f%% hybrid %.1f%%", solo, hybrid)
	}
}
