package apps

import (
	"testing"

	"xlupc/internal/core"
	"xlupc/internal/sim"
	"xlupc/internal/transport"
)

func runCG(t *testing.T, threads, nodes int, prof *transport.Profile, cc core.CacheConfig) (sim.Time, CGResult) {
	t.Helper()
	rt, err := core.NewRuntime(core.Config{
		Threads: threads, Nodes: nodes, Profile: prof, Cache: cc, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	var res CGResult
	st, err := rt.Run(func(th *core.Thread) {
		r := CG(th, DefaultCG())
		if th.ID() == 0 {
			res = r
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return st.Elapsed, res
}

func runIS(t *testing.T, threads, nodes int, prof *transport.Profile, cc core.CacheConfig) (sim.Time, ISResult) {
	t.Helper()
	rt, err := core.NewRuntime(core.Config{
		Threads: threads, Nodes: nodes, Profile: prof, Cache: cc, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	var res ISResult
	st, err := rt.Run(func(th *core.Thread) {
		r := IS(th, DefaultIS())
		if th.ID() == 0 {
			res = r
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return st.Elapsed, res
}

func TestCGConverges(t *testing.T) {
	for _, prof := range []*transport.Profile{transport.GM(), transport.LAPI()} {
		_, res := runCG(t, 8, 4, prof, core.DefaultCache())
		if !res.Verified {
			t.Errorf("%s: CG did not converge: %v", prof.Name, res)
		}
	}
}

func TestCGCacheInvariantAndFaster(t *testing.T) {
	zt, zres := runCG(t, 8, 4, transport.GM(), core.NoCache())
	wt, wres := runCG(t, 8, 4, transport.GM(), core.DefaultCache())
	if zres.RhoFinal != wres.RhoFinal {
		t.Fatalf("cache changed the numerics: %v vs %v", zres.RhoFinal, wres.RhoFinal)
	}
	if !(wt < zt) {
		t.Fatalf("cache did not speed up CG: %v vs %v", wt, zt)
	}
}

func TestCGDeterministic(t *testing.T) {
	_, a := runCG(t, 4, 2, transport.GM(), core.DefaultCache())
	_, b := runCG(t, 4, 2, transport.GM(), core.DefaultCache())
	if a.RhoFinal != b.RhoFinal {
		t.Fatalf("CG not bitwise deterministic: %v vs %v", a.RhoFinal, b.RhoFinal)
	}
}

func TestISSortsAndVerifies(t *testing.T) {
	for _, prof := range []*transport.Profile{transport.GM(), transport.LAPI()} {
		_, res := runIS(t, 8, 4, prof, core.DefaultCache())
		if !res.Verified {
			t.Errorf("%s: IS verification failed: %+v", prof.Name, res)
		}
		if res.Total != 8*int64(DefaultIS().KeysPerThread) {
			t.Errorf("%s: lost keys: %d", prof.Name, res.Total)
		}
	}
}

func TestISCacheInvariant(t *testing.T) {
	_, z := runIS(t, 8, 4, transport.GM(), core.NoCache())
	_, w := runIS(t, 8, 4, transport.GM(), core.DefaultCache())
	if z != w {
		t.Fatalf("cache changed IS results: %+v vs %+v", z, w)
	}
}
