package core

import (
	"fmt"
	"testing"

	"xlupc/internal/transport"
)

// TestAnswerFillsOnce pins what an answer does to the initiator's
// address cache: the first remote touch of a (handle, node) inserts
// exactly one entry, whichever kind of round trip carried the base
// address back, and the second inserts none. A cache-less run inserts
// nothing and its eager answers are piggybackBytes shorter on the wire —
// except the answer to a rendezvous RTS, which carries the address
// because the transfer needs it, cache or no cache.
func TestAnswerFillsOnce(t *testing.T) {
	trips := []struct {
		name string
		rtr  bool // the rendezvous answer: always carries the address
		run  func(th *Thread, a *SharedArray, idx int64)
	}{
		{"get", false, func(th *Thread, a *SharedArray, idx int64) { th.GetUint64(a.At(idx)) }},
		{"put", false, func(th *Thread, a *SharedArray, idx int64) { th.PutUint64(a.At(idx), 7) }},
		{"atomic", false, func(th *Thread, a *SharedArray, idx int64) { th.FetchAdd(a.At(idx), 1) }},
		{"user", false, func(th *Thread, a *SharedArray, idx int64) {
			var reply [8]byte
			callAM(th, a, 1, 8, 0, reply[:])
		}},
		{"rendezvous", true, func(th *Thread, a *SharedArray, idx int64) {
			th.GetBulk(make([]byte, idx*8), a.At(idx))
		}},
	}
	for _, prof := range []func() *transport.Profile{transport.GM, transport.LAPI} {
		for _, trip := range trips {
			// run does the round trip ops times from thread 0 and returns
			// the run's statistics and the entries each one inserted.
			run := func(cached bool, ops int) (RunStats, []int64) {
				p, cc := prof(), NoCache()
				if cached {
					cc = DefaultCache()
				}
				rt, err := NewRuntime(cfg(2, 2, p, cc))
				if err != nil {
					t.Fatal(err)
				}
				rt.HandleUser(userEcho, userEchoAM)
				var inserted []int64
				st, err := rt.Run(func(th *Thread) {
					a, idx := roundTripArray(th, "A"), int64(firstRemote)
					if trip.rtr {
						a, idx = bigArray(th, p)
					}
					if th.ID() == 0 {
						for i := 0; i < ops; i++ {
							var before int64
							if cached {
								before = th.ns.cache.Stats().Inserts
							}
							trip.run(th, a, idx)
							th.Fence() // a PUT's answer is its ACK
							if cached {
								inserted = append(inserted, th.ns.cache.Stats().Inserts-before)
							}
						}
					}
					th.Barrier()
				})
				if err != nil {
					t.Fatal(err)
				}
				return st, inserted
			}
			name := fmt.Sprintf("%s/%s", prof().Name, trip.name)
			if _, inserted := run(true, 2); inserted[0] != 1 || inserted[1] != 0 {
				t.Errorf("%s: the two touches inserted %v entries, want [1 0]", name, inserted)
			}
			with, _ := run(true, 1)
			without, _ := run(false, 1)
			if without.Cache.Inserts != 0 {
				t.Errorf("%s: a cache-less run inserted %d entries", name, without.Cache.Inserts)
			}
			want := int64(piggybackBytes)
			if trip.rtr {
				want = 0
			}
			if got := with.NetBytes - without.NetBytes; got != want {
				t.Errorf("%s: the answer is %d bytes longer with a cache (%d vs %d), want %d",
					name, got, with.NetBytes, without.NetBytes, want)
			}
		}
	}
}
