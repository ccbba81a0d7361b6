package core

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"xlupc/internal/mem"
	"xlupc/internal/sim"
	"xlupc/internal/telemetry"
	"xlupc/internal/transport"
)

var updateRoundTripGolden = flag.Bool("update", false, "rewrite the testdata goldens (roundtrip, dispatch, prom) from this tree")

const roundTripGoldenFile = "testdata/roundtrip_golden.json"

// roundTripRow is what one active-message round trip is pinned to: the
// run's clock, event and wire totals, what the answer did to the
// initiator's cache, and the spans of the operation itself — protocol
// taken and every attributed phase with its duration, in the order the
// layers recorded them.
type roundTripRow struct {
	ElapsedPs    int64    `json:"elapsed_ps"`
	KernelEvents int64    `json:"kernel_events"`
	Messages     int64    `json:"messages"`
	NetBytes     int64    `json:"net_bytes"`
	AMOps        int64    `json:"am_ops"`
	RDMAOps      int64    `json:"rdma_ops"`
	CacheHits    int64    `json:"cache_hits"`
	CacheMisses  int64    `json:"cache_misses"`
	CacheInserts int64    `json:"cache_inserts"`
	Spans        []string `json:"spans"`
}

// userEcho is the user-AM handler of the round-trip programs: argument
// A is how many bytes of the anchor's chunk to send back; none at all
// stores argument B there instead.
const userEcho UserHandlerID = 0

func userEchoAM(c *UserCtx, reply func([]byte)) {
	n, v := c.Args()
	if n == 0 {
		w := make([]byte, 8)
		byteOrder.PutUint64(w, v)
		c.WriteLocalC(0, w, func() { reply(nil) })
		return
	}
	payload := make([]byte, n)
	c.ReadLocalC(0, payload, func() { reply(payload) })
}

// callAM is CallAMC for a blocking body.
func callAM(th *Thread, a *SharedArray, rn int, argA, argB uint64, reply []byte) int {
	var got int
	th.Await(sim.Func(func() {
		th.CallAMC(a, rn, userEcho, argA, argB, 16, reply, "user", func(n int) { got = n; th.Resume() })
	}), 0)
	return got
}

// roundTrip is one tiny program: two threads on two nodes (thread 1 and
// every element from `firstRemote` up live on node 1), so whatever
// thread 0 does to a remote element is exactly the round trip under
// test.
type roundTrip struct {
	name string
	tune func(c *Config) // nil: the plain configuration
	body func(t *testing.T, th *Thread, prof *transport.Profile)
}

const firstRemote = 8 // first element of node 1 in roundTripArray's layout

func roundTripArray(th *Thread, name string) *SharedArray {
	a := th.AllAlloc(name, 16, 8, 8)
	if th.ID() == 1 {
		for i := int64(firstRemote); i < 16; i++ {
			th.PutUint64(a.At(i), uint64(100+i))
		}
	}
	th.Barrier()
	return a
}

// bigArray has one rendezvous-sized block per thread.
func bigArray(th *Thread, prof *transport.Profile) (a *SharedArray, elems int64) {
	elems = int64(prof.EagerMax/8 + 1)
	a = th.AllAlloc("big", 2*elems, 8, elems)
	th.Barrier()
	return a, elems
}

// pinRefused makes every registration fail: no chunk fits the limit.
func pinRefused(c *Config) { c.Pin = &PinConfig{Policy: mem.PinAll, MaxPerObject: 64} }

func withCoalesce(c *Config) {
	cc := transport.DefaultCoalConfig()
	c.Coalesce = &cc
}

func roundTrips() []roundTrip {
	// Every data operation runs twice: the first answer carries the base
	// address, so with a cache the second one shows whether it was filled.
	rendezvous := func(put bool) func(t *testing.T, th *Thread, prof *transport.Profile) {
		return func(t *testing.T, th *Thread, prof *transport.Profile) {
			a, elems := bigArray(th, prof)
			if th.ID() == 0 {
				buf := make([]byte, elems*8)
				for i := 0; i < 2; i++ {
					if put {
						buf[0] = byte(i + 1)
						th.PutBulk(a.At(elems), buf)
						th.Fence()
					} else {
						th.GetBulk(buf, a.At(elems))
					}
				}
			}
			th.Barrier()
			if put && th.ID() == 1 {
				if got := th.GetUint64(a.At(elems)); got != 2 {
					t.Errorf("rendezvous PUT left %d, want 2", got)
				}
			}
		}
	}
	return []roundTrip{
		{name: "get_eager", body: func(t *testing.T, th *Thread, _ *transport.Profile) {
			a := roundTripArray(th, "A")
			if th.ID() == 0 {
				for i := 0; i < 2; i++ {
					if got := th.GetUint64(a.At(firstRemote + 1)); got != 100+firstRemote+1 {
						t.Errorf("GET = %d", got)
					}
				}
			}
			th.Barrier()
		}},
		{name: "put_eager_fence", body: func(t *testing.T, th *Thread, _ *transport.Profile) {
			a := roundTripArray(th, "A")
			if th.ID() == 0 {
				for i := 0; i < 2; i++ {
					th.PutUint64(a.At(firstRemote+2), uint64(7+i))
					th.Fence()
				}
			}
			th.Barrier()
			if th.ID() == 1 {
				if got := th.GetUint64(a.At(firstRemote + 2)); got != 8 {
					t.Errorf("PUT left %d, want 8", got)
				}
			}
		}},
		{name: "get_rendezvous", body: rendezvous(false)},
		{name: "put_rendezvous", body: rendezvous(true)},
		{name: "get_rendezvous_pin_refused",
			tune: pinRefused,
			body: rendezvous(false)},
		{name: "put_rendezvous_pin_refused",
			tune: pinRefused,
			body: rendezvous(true)},
		{name: "atomic_fetchadd", body: func(t *testing.T, th *Thread, _ *transport.Profile) {
			a := roundTripArray(th, "A")
			if th.ID() == 0 {
				for i := uint64(0); i < 2; i++ {
					// A previous value above 255 is one an interface would box.
					if got := th.FetchAdd(a.At(firstRemote+3), 1000); got != 100+firstRemote+3+1000*i {
						t.Errorf("FetchAdd = %d", got)
					}
				}
			}
			th.Barrier()
		}},
		// Eight split-phase GETs of eight objects leave in one frame: every
		// answer shares the pairs the frame pinned so far, capped at
		// maxPiggybackPairs.
		{name: "nbget_x8_coalesced", tune: withCoalesce, body: func(t *testing.T, th *Thread, _ *transport.Profile) {
			var arrs [8]*SharedArray
			for i := range arrs {
				arrs[i] = roundTripArray(th, fmt.Sprintf("A%d", i))
			}
			if th.ID() == 0 {
				for round := 0; round < 2; round++ {
					var bufs [8][8]byte
					for i, a := range arrs {
						th.NbGet(bufs[i][:], a.At(firstRemote+int64(i)))
					}
					th.SyncAll()
					for i := range bufs {
						if got := byteOrder.Uint64(bufs[i][:]); got != uint64(100+firstRemote+i) {
							t.Errorf("round %d: NbGet %d = %d", round, i, got)
						}
					}
				}
			}
			th.Barrier()
		}},
		{name: "user_am_payload", body: func(t *testing.T, th *Thread, _ *transport.Profile) {
			a := roundTripArray(th, "A")
			if th.ID() == 0 {
				for i := 0; i < 2; i++ {
					var reply [24]byte
					if n := callAM(th, a, 1, 24, 0, reply[:]); n != 24 || byteOrder.Uint64(reply[8:]) != 100+firstRemote+1 {
						t.Errorf("user AM replied %d bytes, %v", n, reply)
					}
				}
			}
			th.Barrier()
		}},
		{name: "user_am_no_payload", body: func(t *testing.T, th *Thread, _ *transport.Profile) {
			a := roundTripArray(th, "A")
			if th.ID() == 0 {
				for i := uint64(0); i < 2; i++ {
					var reply [24]byte
					if n := callAM(th, a, 1, 0, 77+i, reply[:]); n != 0 {
						t.Errorf("user AM without a payload replied %d bytes", n)
					}
				}
			}
			th.Barrier()
			if th.ID() == 1 {
				if got := th.GetUint64(a.At(firstRemote)); got != 78 {
					t.Errorf("user AM stored %d, want 78", got)
				}
			}
		}},
		{name: "free", body: func(t *testing.T, th *Thread, _ *transport.Profile) {
			a := roundTripArray(th, "A")
			if th.ID() == 0 {
				th.GetUint64(a.At(firstRemote)) // something for the free to invalidate
			}
			th.Barrier()
			if th.ID() == 0 {
				th.Free(a)
			}
			th.Barrier()
		}},
	}
}

// runRoundTrip runs one program and reduces it to its golden row.
func runRoundTrip(t *testing.T, rtp roundTrip, prof *transport.Profile, cached bool) roundTripRow {
	t.Helper()
	cc := NoCache()
	if cached {
		cc = DefaultCache()
	}
	c := cfg(2, 2, prof, cc)
	tel := telemetry.New()
	c.Telemetry = tel
	if rtp.tune != nil {
		rtp.tune(&c)
	}
	rt, err := NewRuntime(c)
	if err != nil {
		t.Fatal(err)
	}
	rt.HandleUser(userEcho, userEchoAM)
	st, err := rt.Run(func(th *Thread) { rtp.body(t, th, prof) })
	if err != nil {
		t.Fatalf("%s: %v", rtp.name, err)
	}
	row := roundTripRow{
		ElapsedPs: int64(st.Elapsed), KernelEvents: st.KernelEvents,
		Messages: st.Messages, NetBytes: st.NetBytes, AMOps: st.AMOps, RDMAOps: st.RDMAOps,
		CacheHits: st.Cache.Hits, CacheMisses: st.Cache.Misses, CacheInserts: st.Cache.Inserts,
		Spans: []string{},
	}
	for _, s := range tel.Spans() {
		if s.Op == "barrier" || s.Op == "alloc" || s.Proto == "local" {
			continue // set-up and checks, the same in every program
		}
		var b strings.Builder
		fmt.Fprintf(&b, "%d %s/%s %d", s.Thread, s.Op, s.Proto, int64(s.End-s.Start))
		for _, ph := range s.Phases {
			fmt.Fprintf(&b, " %s=%d", ph.Name, int64(ph.Dur()))
		}
		row.Spans = append(row.Spans, b.String())
	}
	return row
}

// TestRoundTripGolden pins every kind of active-message round trip the
// runtime has — one tiny program each, on both transports, with and
// without the address cache — to absolute values recorded from the tree
// in which each kind of answer still had its own header and handler:
// wire sizes (the piggyback bytes, an atomic's result word), event
// counts, and the order copy-out, cache fill, fence, completion as the
// span phases show it. Regenerate only for a deliberate protocol change:
// `go test ./internal/core -run TestRoundTripGolden -update`.
func TestRoundTripGolden(t *testing.T) {
	want := map[string]roundTripRow{}
	if !*updateRoundTripGolden {
		raw, err := os.ReadFile(roundTripGoldenFile)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatalf("%s: %v", roundTripGoldenFile, err)
		}
	}
	got := map[string]roundTripRow{}
	for _, rtp := range roundTrips() {
		for _, prof := range []func() *transport.Profile{transport.GM, transport.LAPI} {
			for _, cached := range []bool{true, false} {
				p := prof()
				key := fmt.Sprintf("%s/%s/cache=%v", rtp.name, p.Name, cached)
				got[key] = runRoundTrip(t, rtp, p, cached)
				if *updateRoundTripGolden {
					continue
				}
				if w, ok := want[key]; !ok {
					t.Errorf("%s: no golden row", key)
				} else if !reflect.DeepEqual(got[key], w) {
					t.Errorf("%s:\n got  %+v\n want %+v", key, got[key], w)
				}
			}
		}
	}
	if *updateRoundTripGolden {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(roundTripGoldenFile, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if len(want) != len(got) {
		t.Errorf("%s has %d rows, the matrix has %d", roundTripGoldenFile, len(want), len(got))
	}
}
