package core

import (
	"fmt"
	"testing"

	"xlupc/internal/telemetry"
	"xlupc/internal/transport"
)

// TestConsultRung pins where the address cache is consulted: every
// remote operation that may use it looks it up exactly once, under one
// cache_lookup phase, and goes one-sided on a hit; PUTs on a profile
// that disables PUT caching (LAPI), and every operation of a cache-less
// run, never look it up at all.
func TestConsultRung(t *testing.T) {
	kinds := []struct {
		name, op string
		put      bool
		run      func(th *Thread, r Ref)
	}{
		{"get", "get", false, func(th *Thread, r Ref) { th.GetUint64(r) }},
		{"put", "put", true, func(th *Thread, r Ref) { th.PutUint64(r, 7) }},
		{"atomic", "atomic", false, func(th *Thread, r Ref) { th.FetchAdd(r, 1) }},
		{"nbget", "get", false, func(th *Thread, r Ref) {
			th.NbGet(make([]byte, 8), r)
			th.SyncAll()
		}},
	}
	for _, prof := range []*transport.Profile{transport.GM(), transport.LAPI()} {
		for _, cached := range []bool{true, false} {
			for _, k := range kinds {
				cc := NoCache()
				if cached {
					cc = DefaultCache()
				}
				consults := cached && (!k.put || prof.PutCacheEnabled)
				name := fmt.Sprintf("%s/cache=%v/%s", prof.Name, cached, k.name)
				tel := telemetry.New()
				c := cfg(2, 2, prof, cc)
				c.Telemetry = tel
				mustRun(t, c, func(th *Thread) {
					a := th.AllAlloc("A", 16, 8, 8) // elements 8..15 live on node 1
					th.Barrier()
					if th.ID() == 0 {
						for access := 1; access <= 2; access++ {
							var look0 int64
							if cached {
								look0 = th.ns.cache.Stats().Lookups()
							}
							am0, rdma0, span0 := th.rt.M.AMCount(), th.rt.M.RDMACount(), len(tel.Spans())
							k.run(th, a.At(8))
							th.Fence() // a PUT's ACK carries the base that fills the cache
							var looks int64
							if cached {
								looks = th.ns.cache.Stats().Lookups() - look0
							}
							am, rdma := th.rt.M.AMCount()-am0, th.rt.M.RDMACount()-rdma0

							wantLooks, hit := int64(0), consults && access == 2
							if consults {
								wantLooks = 1
							}
							if looks != wantLooks {
								t.Errorf("%s access %d: %d cache lookups, want %d", name, access, looks, wantLooks)
							}
							if hit && (rdma != 1 || am != 0) {
								t.Errorf("%s access %d (hit): %d RDMA ops / %d AMs, want 1 / 0", name, access, rdma, am)
							}
							if !hit && (rdma != 0 || am == 0) {
								t.Errorf("%s access %d (miss): %d RDMA ops / %d AMs, want 0 / some", name, access, rdma, am)
							}
							var ops, phases int
							for _, s := range tel.Spans()[span0:] {
								if s.Op != k.op {
									continue
								}
								ops++
								for _, ph := range s.Phases {
									if ph.Name == telemetry.PhaseCacheLookup {
										phases++
									}
								}
							}
							if ops != 1 || int64(phases) != wantLooks {
								t.Errorf("%s access %d: %d %s spans carrying %d cache_lookup phases, want 1 carrying %d",
									name, access, ops, k.op, phases, wantLooks)
							}
						}
					}
					th.Barrier()
				})
			}
		}
	}
}
