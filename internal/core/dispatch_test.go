package core_test

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"

	"xlupc/internal/core"
	"xlupc/internal/fault"
	"xlupc/internal/kv"
	"xlupc/internal/mem"
	"xlupc/internal/sim"
	"xlupc/internal/telemetry"
	"xlupc/internal/transport"
)

const dispatchGoldenFile = "testdata/dispatch_golden.json"

// dispatchRow is what one program of contending AM traffic is pinned
// to: the run's clock, event and wire totals, how every node's handler
// resource (Comm: the CPU itself on GM) and AM queue were used, a digest
// of every value the program read and of the memory it left, and the
// span phase totals by operation.
type dispatchRow struct {
	ElapsedPs    int64    `json:"elapsed_ps"`
	KernelEvents int64    `json:"kernel_events"`
	Messages     int64    `json:"messages"`
	NetBytes     int64    `json:"net_bytes"`
	Comm         []string `json:"comm"`     // per node: acquires wait_ps busy_ps
	AMQueue      []string `json:"am_queue"` // per node: pushes max_len
	Digest       string   `json:"digest"`
	Phases       []string `json:"phases"` // op/proto/phase total_ps, sorted
}

// digest folds the values each thread observed, per thread, so the
// order threads finish in does not matter — only what they saw.
type digest []uint64

func (d digest) add(th *core.Thread, vs ...uint64) {
	h := d[th.ID()]
	for _, v := range vs {
		h = (h ^ v) * 1099511628211
	}
	d[th.ID()] = h
}

func (d digest) sum() string {
	h := uint64(14695981039346656037)
	for _, v := range d {
		h = (h ^ v) * 1099511628211
	}
	return fmt.Sprintf("%016x", h)
}

func b2u(ok bool) uint64 {
	if ok {
		return 1
	}
	return 0
}

// final folds the whole of a into thread 0's digest, then synchronizes.
func (d digest) final(th *core.Thread, a *core.SharedArray, elems int64) {
	if th.ID() == 0 {
		buf := make([]byte, elems*8)
		th.GetBulk(buf, a.At(0))
		for i := 0; i < len(buf); i += 8 {
			d.add(th, binary.LittleEndian.Uint64(buf[i:]))
		}
	}
	th.Barrier()
}

// dispatchProgram is one program, of 16 threads on 4 nodes unless tune
// says otherwise, whose AM traffic makes the target's dispatcher
// contexts contend: for the AM queue, for Comm, for a lock taken inside
// a handler.
type dispatchProgram struct {
	name string
	tune func(c *core.Config)
	body func(d digest) func(th *core.Thread)
}

func dispatchPrograms() []dispatchProgram {
	return []dispatchProgram{
		// Twelve threads of three nodes GET, PUT and fetch-add on one home
		// node: requests queue on its AM queue and on Comm.
		{name: "hammer_one_home", body: func(d digest) func(th *core.Thread) {
			return func(th *core.Thread) {
				a := th.AllAlloc("H", 64, 8, 16) // threads 0-3: all on node 0
				th.Barrier()
				if th.Node() != 0 {
					for i := 0; i < 4; i++ {
						e := int64((th.ID()*7 + i*5) % 64)
						d.add(th, th.GetUint64(a.At(e)))
						th.PutUint64(a.At((e+1)%64), uint64(th.ID()*100+i))
						d.add(th, th.FetchAdd(a.At(63), 1))
					}
				}
				th.Fence()
				th.Barrier()
				d.final(th, a, 64)
			}
		}},
		// Split-phase traffic under coalescing: frames served by the batch
		// path, replies framed and flushed, blocking PUTs between them.
		{name: "coalesced_nbget", tune: func(c *core.Config) {
			cc := transport.DefaultCoalConfig()
			c.Coalesce = &cc
		}, body: func(d digest) func(th *core.Thread) {
			return func(th *core.Thread) {
				a := th.AllAlloc("C", 256, 8, 4)
				th.Barrier()
				for round := 0; round < 2; round++ {
					var bufs [8][8]byte
					for j := range bufs {
						th.NbGet(bufs[j][:], a.At(int64((th.ID()*13+j*17+round)%256)))
					}
					for j := 0; j < 4; j++ {
						th.PutUint64(a.At(int64((th.ID()*29+j*31+round*7)%256)), uint64(th.ID()*1000+j+round))
					}
					th.SyncAll()
					for j := range bufs {
						d.add(th, binary.LittleEndian.Uint64(bufs[j][:]))
					}
				}
				th.Fence()
				th.Barrier()
				d.final(th, a, 256)
			}
		}},
		// Rendezvous transfers above EagerMax, from four threads at once.
		{name: "rendezvous", body: func(d digest) func(th *core.Thread) {
			return func(th *core.Thread) {
				prof := th.Runtime().Config().Profile
				elems := int64(prof.EagerMax/8 + 1)
				a := th.AllAlloc("R", 16*elems, 8, elems)
				th.Barrier()
				if th.Node() == 1 {
					buf := make([]byte, elems*8)
					for round := 0; round < 2; round++ {
						th.GetBulk(buf, a.At(int64(8+th.ID()%4)*elems))
						d.add(th, binary.LittleEndian.Uint64(buf), binary.LittleEndian.Uint64(buf[len(buf)-8:]))
						binary.LittleEndian.PutUint64(buf, uint64(th.ID()*10+round))
						th.PutBulk(a.At(int64(12+th.ID()%4)*elems), buf)
						th.Fence()
					}
				}
				th.Barrier()
				d.final(th, a, 16*elems)
			}
		}},
		// Free of an object every node touched: each node's handler drops
		// its cache entries and deregisters its piece.
		{name: "free_touched", body: func(d digest) func(th *core.Thread) {
			return func(th *core.Thread) {
				a := th.AllAlloc("F", 64, 8, 4)
				th.ForAll(a, func(i int64) { th.PutUint64(a.At(i), uint64(i*i)) })
				th.Barrier()
				for n := int64(0); n < 4; n++ {
					d.add(th, th.GetUint64(a.At(n*16+int64(th.ID()%16))))
				}
				th.Barrier()
				d.final(th, a, 64)
				if th.ID() == 0 {
					th.Free(a)
				}
				th.Barrier()
				b := th.AllAlloc("F2", 64, 8, 4)
				th.PutUint64(b.At(int64((th.ID()*5)%64)), uint64(th.ID()))
				th.Fence()
				th.Barrier()
				d.final(th, b, 64)
			}
		}},
		{name: "allreduce", body: func(d digest) func(th *core.Thread) {
			return func(th *core.Thread) {
				for i, op := range reduceOps {
					d.add(th, th.AllReduceU64(uint64(th.ID()*7+i), op))
				}
			}
		}},
		// A KV table under contended Put/Get of eight hot keys, reads
		// through the lookup AM: handlers queue on the node's shard lock.
		{name: "kv_contended_put_get", body: func(d digest) func(th *core.Thread) {
			return func(th *core.Thread) {
				tb := kv.New(th, kv.Options{Name: "kv", NumKeys: 256, ReadViaAM: true})
				kv.Preload(th, tb, 256)
				for i := 0; i < 12; i++ {
					key := 1 + uint64((th.ID()*3+i)%8)
					if i%2 == 0 {
						d.add(th, b2u(tb.Put(th, key, uint64(th.ID()<<8|i))))
						continue
					}
					v, ok := tb.Get(th, key)
					d.add(th, v, b2u(ok))
				}
				th.Barrier()
				if th.ID() == 0 {
					for key := uint64(1); key <= 8; key++ {
						v, ok := tb.Get(th, key)
						d.add(th, v, b2u(ok))
					}
				}
				th.Barrier()
			}
		}},
		{name: "reduce_broadcast", body: reduceBroadcast},
		// Twelve nodes: the binomial trees' src < n and dst < n edges.
		{name: "reduce_broadcast_48x12", tune: func(c *core.Config) { c.Threads, c.Nodes = 48, 12 }, body: reduceBroadcast},
		// Cached PUTs through entries the limited-pinning policy has
		// deregistered since: each is NACKed and retried over the AM path.
		{name: "put_nack_retry_blocking", tune: func(c *core.Config) {
			c.Cache.PutMode = core.PutCacheOn
			chunk := core.NewLayout(16, 4, 8, 8, 128).NodeChunkBytes()
			c.Pin = &core.PinConfig{Policy: mem.PinLimited, MaxTotal: int(chunk) + 1}
		}, body: func(d digest) func(th *core.Thread) {
			return func(th *core.Thread) {
				var as []*core.SharedArray
				for i := 0; i < 4; i++ {
					as = append(as, th.AllAlloc(fmt.Sprintf("N%d", i), 128, 8, 8))
				}
				th.Barrier()
				// An element of a thread on the next node that only this
				// thread writes.
				e := int64((th.ID()+4)%16*8 + th.ID()%8)
				for round := 0; round < 2; round++ {
					for _, a := range as {
						d.add(th, th.GetUint64(a.At(e)))
					}
					for i, a := range as {
						th.PutUint64(a.At(e), uint64(th.ID()<<16|round<<8|i))
					}
					th.Fence()
				}
				th.Barrier()
				for _, a := range as {
					d.final(th, a, 128)
				}
			}
		}},
		// Cached PUTs across transparent restarts: a stale-epoch NACK
		// flushes the node's entries and retries over the AM path.
		{name: "put_stale_retry", tune: func(c *core.Config) {
			c.Cache.PutMode = core.PutCacheOn
			c.Crash = &core.CrashConfig{CrashConfig: fault.CrashConfig{
				Prob: 0.6, Every: 50 * sim.Us,
				RestartMin: 20 * sim.Us, RestartMax: 40 * sim.Us,
				Horizon: 5 * sim.Ms, MaxPerNode: 2,
			}}
		}, body: func(d digest) func(th *core.Thread) {
			return func(th *core.Thread) {
				a := th.AllAlloc("S", 128, 8, 8)
				th.Barrier()
				e := int64((th.ID()+4)%16*8 + th.ID()%8)
				for i := 0; i < 24; i++ {
					th.PutUint64(a.At(e), uint64(th.ID()<<8|i))
					th.Compute(20 * sim.Us)
				}
				th.Barrier()
				d.final(th, a, 128)
			}
		}},
	}
}

var reduceOps = []core.ReduceOp{core.ReduceSum, core.ReduceMax, core.ReduceXor}

// reduceBroadcast runs the reduction and the broadcast once each, rooted
// off node 0, then one thread PUTs into an object homed on node 0, and
// every thread Sleeps.
func reduceBroadcast(d digest) func(th *core.Thread) {
	return func(th *core.Thread) {
		n := th.Threads()
		d.add(th, math.Float64bits(th.AllReduceF64(float64(th.ID())*0.5+0.25)))
		var bc []byte
		if th.ID() == n/3 {
			bc = make([]byte, 24)
			for i := range bc {
				bc[i] = byte(i*7 + th.ID())
			}
		}
		for _, b := range th.Broadcast(n/3, bc) {
			d.add(th, uint64(b))
		}
		obj := th.AllAlloc("L", 8, 8, 8)
		if th.ID() == n-1 {
			for i := int64(0); i < 8; i++ {
				th.PutUint64(obj.At(i), uint64(i+11))
			}
		}
		th.Sleep(sim.Duration(th.ID()%3) * 100 * sim.Ns)
		th.Fence()
		th.Barrier()
		d.final(th, obj, 8)
	}
}

// runDispatch runs one program and reduces it to its golden row.
func runDispatch(t *testing.T, dp dispatchProgram, prof *transport.Profile, cached bool) dispatchRow {
	t.Helper()
	cc := core.NoCache()
	if cached {
		cc = core.DefaultCache()
	}
	tel := telemetry.New()
	c := core.Config{Threads: 16, Nodes: 4, Profile: prof, Cache: cc, Seed: 5, Telemetry: tel}
	if dp.tune != nil {
		dp.tune(&c)
	}
	rt, err := core.NewRuntime(c)
	if err != nil {
		t.Fatal(err)
	}
	d := make(digest, c.Threads)
	for i := range d {
		d[i] = 14695981039346656037
	}
	st, err := rt.Run(dp.body(d))
	if err != nil {
		t.Fatalf("%s: %v", dp.name, err)
	}
	row := dispatchRow{
		ElapsedPs: int64(st.Elapsed), KernelEvents: st.KernelEvents,
		Messages: st.Messages, NetBytes: st.NetBytes, Digest: d.sum(),
	}
	for n := 0; n < c.Nodes; n++ {
		cs := rt.M.Nodes[n].Comm.Stats()
		row.Comm = append(row.Comm, fmt.Sprintf("%d %d %d", cs.Acquires, int64(cs.TotalWait), int64(cs.BusyTime)))
		q := rt.M.Fab.Port(n).AM
		row.AMQueue = append(row.AMQueue, fmt.Sprintf("%d %d", q.Pushes(), q.MaxLen()))
	}
	totals := map[string]int64{}
	for _, s := range tel.Spans() {
		totals[s.Op+"/"+s.Proto+" spans"]++
		for _, ph := range s.Phases {
			totals[s.Op+"/"+s.Proto+"/"+ph.Name] += int64(ph.Dur())
		}
	}
	for k, v := range totals {
		row.Phases = append(row.Phases, fmt.Sprintf("%s %d", k, v))
	}
	sort.Strings(row.Phases)
	return row
}

// TestDispatchGolden pins what the target side does under contention —
// sixteen threads of AM traffic per program, dispatcher contexts
// competing for the AM queue, Comm and locks taken inside handlers (the
// KV's shard lock), on
// GM (one context per node) and LAPI (four), with and without the
// address cache — to absolute values recorded while every dispatcher
// context was still a process. Regenerate only for a deliberate model
// change: `go test ./internal/core -run TestDispatchGolden -update`.
func TestDispatchGolden(t *testing.T) {
	update := flag.Lookup("update").Value.(flag.Getter).Get().(bool)
	want := map[string]dispatchRow{}
	if !update {
		raw, err := os.ReadFile(dispatchGoldenFile)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatalf("%s: %v", dispatchGoldenFile, err)
		}
	}
	got := map[string]dispatchRow{}
	for _, dp := range dispatchPrograms() {
		for _, prof := range []func() *transport.Profile{transport.GM, transport.LAPI} {
			for _, cached := range []bool{true, false} {
				p := prof()
				key := fmt.Sprintf("%s/%s/cache=%v", dp.name, p.Name, cached)
				got[key] = runDispatch(t, dp, p, cached)
				if update {
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
	if update {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dispatchGoldenFile, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if len(want) != len(got) {
		t.Errorf("%s has %d rows, the matrix has %d", dispatchGoldenFile, len(want), len(got))
	}
}
