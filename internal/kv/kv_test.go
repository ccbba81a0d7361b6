package kv

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"xlupc/internal/core"
	"xlupc/internal/sim"
	"xlupc/internal/transport"
)

const testKeys = 512

func testWorkload() Workload {
	return Workload{Ops: 120, NumKeys: testKeys, Theta: 0.9, ReadFrac: 0.9, Rate: 100000}
}

func testConfig(cc core.CacheConfig) core.Config {
	return core.Config{Threads: 8, Nodes: 4, Profile: transport.GM(), Cache: cc, Seed: 42}
}

func mustZipf(t *testing.T, n int64, theta float64) *Zipf {
	t.Helper()
	z, err := NewZipf(n, theta)
	if err != nil {
		t.Fatalf("NewZipf: %v", err)
	}
	return z
}

// runLoad runs preload + load and returns the run stats plus the merged
// generator result.
func runLoad(t *testing.T, cfg core.Config, o Options, w Workload) (core.RunStats, ThreadResult) {
	t.Helper()
	rt, err := core.NewRuntime(cfg)
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	z := mustZipf(t, w.NumKeys, w.Theta)
	results := make([]ThreadResult, cfg.Threads)
	st, err := rt.RunCont(func(th *core.Thread, done func()) {
		NewC(th, o, func(tb *Table) {
			PreloadC(th, tb, w.NumKeys, func(int64) {
				RunLoadC(th, tb, w, z, func(r ThreadResult) {
					results[th.ID()] = r
					done()
				})
			})
		})
	})
	if err != nil {
		t.Fatalf("RunCont: %v", err)
	}
	return st, Merge(results)
}

// TestKVDeterminism: the same seed must give bit-identical results
// across repeat runs and host GOMAXPROCS.
func TestKVDeterminism(t *testing.T) {
	o := Options{Name: "kv", NumKeys: testKeys}
	w := testWorkload()
	st1, m1 := runLoad(t, testConfig(core.DefaultCache()), o, w)
	st2, m2 := runLoad(t, testConfig(core.DefaultCache()), o, w)
	if m1.Checksum != m2.Checksum {
		t.Fatalf("repeat run checksum diverged: %#x vs %#x", m1.Checksum, m2.Checksum)
	}
	if !reflect.DeepEqual(st1, st2) {
		t.Fatalf("repeat run stats diverged:\n%+v\n%+v", st1, st2)
	}

	prev := runtime.GOMAXPROCS(1)
	st3, m3 := runLoad(t, testConfig(core.DefaultCache()), o, w)
	runtime.GOMAXPROCS(prev)
	if m3.Checksum != m1.Checksum || !reflect.DeepEqual(st3, st1) {
		t.Fatalf("GOMAXPROCS=1 run diverged: %#x vs %#x", m3.Checksum, m1.Checksum)
	}
	if m1.Ops != int64(testConfig(core.DefaultCache()).Threads)*w.Ops {
		t.Fatalf("op count %d, want %d", m1.Ops, 8*w.Ops)
	}
}

// TestKVGoldenChecksum pins the canonical smoke configuration to a
// checked-in checksum, so any change to the kv protocol, the layout
// arithmetic or the load generator that alters behaviour is caught in
// CI. Regenerate deliberately by updating the constant.
func TestKVGoldenChecksum(t *testing.T) {
	const golden = uint64(0x9a6a08d8cfc4d696)
	_, m := runLoad(t, testConfig(core.DefaultCache()), Options{Name: "kv", NumKeys: testKeys}, testWorkload())
	if m.Checksum != golden {
		t.Fatalf("golden checksum diverged: got %#x, want %#x", m.Checksum, golden)
	}
}

// TestCachedBeatsAMOnly: with a hot address cache, one-sided reads
// must beat the AM-only baseline on a read-heavy skewed workload.
func TestCachedBeatsAMOnly(t *testing.T) {
	o := Options{Name: "kv", NumKeys: testKeys}
	w := testWorkload()
	w.Rate = 0 // closed loop: elapsed time is pure op latency
	_, cached := runLoad(t, testConfig(core.DefaultCache()), o, w)
	amOnly := o
	amOnly.ReadViaAM = true
	_, am := runLoad(t, testConfig(core.NoCache()), amOnly, w)
	if cached.Ops != am.Ops {
		t.Fatalf("op counts diverged: %d vs %d", cached.Ops, am.Ops)
	}
	cachedMean := float64(cached.LatSum) / float64(cached.Ops)
	amMean := float64(am.LatSum) / float64(am.Ops)
	if cachedMean >= amMean {
		t.Fatalf("cached mean latency %.0fps not better than AM-only %.0fps", cachedMean, amMean)
	}
}

// step is one entry of a thread's script: a table operation, a sleep
// or barrier that places it in time, or a raw read of the bucket line
// whose sequence word is element key.
type step struct {
	op       byte // 'g'et, 'p'ut, 's'leep, 'b'arrier, 'l'ine
	key, arg uint64
	d        sim.Duration
}

// outcome is what a table operation returned (val stays 0 for Put).
type outcome struct {
	val uint64
	ok  bool
}

// scriptRun is everything a scripted run can be compared on.
type scriptRun struct {
	Out   [][]outcome           // per thread, in script order
	Lines [][][bucketBytes]byte // per thread, what its 'l' steps read
	Table []Stats               // per thread
	Run   core.RunStats
}

// runScript builds a table (preloading keys 1..preload), then runs
// script(tb, thread id) on every thread: through the blocking methods
// under Run, or through the ...C forms under RunCont. Both end with a
// barrier.
func runScript(t *testing.T, cps bool, cfg core.Config, o Options, preload int64, script func(tb *Table, tid int) []step) scriptRun {
	t.Helper()
	rt, err := core.NewRuntime(cfg)
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	r := scriptRun{Out: make([][]outcome, cfg.Threads), Lines: make([][][bucketBytes]byte, cfg.Threads), Table: make([]Stats, cfg.Threads)}
	if !cps {
		r.Run, err = rt.Run(func(th *core.Thread) {
			id := th.ID()
			tb := New(th, o)
			if preload > 0 {
				Preload(th, tb, preload)
			}
			for _, s := range script(tb, id) {
				var v uint64
				var ok bool
				switch s.op {
				case 'g':
					v, ok = tb.Get(th, s.key)
				case 'p':
					ok = tb.Put(th, s.key, s.arg)
				case 's':
					th.Sleep(s.d)
					continue
				case 'b':
					th.Barrier()
					continue
				case 'l':
					var ln [bucketBytes]byte
					th.GetBulk(ln[:], tb.a.At(int64(s.key)))
					r.Lines[id] = append(r.Lines[id], ln)
					continue
				}
				r.Out[id] = append(r.Out[id], outcome{v, ok})
			}
			th.Barrier()
			r.Table[id] = tb.Stats
		})
	} else {
		r.Run, err = rt.RunCont(func(th *core.Thread, done func()) {
			id := th.ID()
			NewC(th, o, func(tb *Table) {
				var steps []step
				i := 0
				var next func()
				val := func(v uint64, ok bool) {
					r.Out[id] = append(r.Out[id], outcome{v, ok})
					next()
				}
				okOnly := func(ok bool) { val(0, ok) }
				next = func() {
					if i == len(steps) {
						th.BarrierC(func() {
							r.Table[id] = tb.Stats
							done()
						})
						return
					}
					s := steps[i]
					i++
					switch s.op {
					case 'g':
						tb.GetC(th, s.key, val)
					case 'p':
						tb.PutC(th, s.key, s.arg, okOnly)
					case 's':
						th.SleepC(s.d, next)
					case 'b':
						th.BarrierC(next)
					case 'l':
						ln := new([bucketBytes]byte)
						th.GetBulkC(ln[:], tb.a.At(int64(s.key)), func() {
							r.Lines[id] = append(r.Lines[id], *ln)
							next()
						})
					}
				}
				start := func(int64) {
					steps = script(tb, id)
					next()
				}
				if preload > 0 {
					PreloadC(th, tb, preload, start)
				} else {
					start(0)
				}
			})
		})
	}
	if err != nil {
		t.Fatalf("run (cps=%v): %v", cps, err)
	}
	return r
}

// bothStyles runs the script through the blocking shims and through the
// ...C forms and requires the two runs to agree on every returned value,
// every thread's table counters and the whole RunStats: the shim adds
// nothing to its continuation form, not even a kernel event.
func bothStyles(t *testing.T, cfg core.Config, o Options, preload int64, script func(tb *Table, tid int) []step) scriptRun {
	t.Helper()
	blocking := runScript(t, false, cfg, o, preload, script)
	cps := runScript(t, true, cfg, o, preload, script)
	if !reflect.DeepEqual(blocking.Out, cps.Out) {
		t.Errorf("returned values diverged:\n blocking %+v\n cps      %+v", blocking.Out, cps.Out)
	}
	if !reflect.DeepEqual(blocking.Lines, cps.Lines) {
		t.Errorf("raw lines diverged:\n blocking %x\n cps      %x", blocking.Lines, cps.Lines)
	}
	if !reflect.DeepEqual(blocking.Table, cps.Table) {
		t.Errorf("table stats diverged:\n blocking %+v\n cps      %+v", blocking.Table, cps.Table)
	}
	if !reflect.DeepEqual(blocking.Run, cps.Run) {
		t.Errorf("RunStats diverged:\n blocking %+v\n cps      %+v", blocking.Run, cps.Run)
	}
	return blocking
}

// keyOnNode is the first key at or after from homed on node.
func keyOnNode(tb *Table, from uint64, node int) uint64 {
	for k := from; ; k++ {
		if tb.a.Layout().NodeOf(tb.g.lineIdx(tb.g.shardOf(k), 0)) == node {
			return k
		}
	}
}

// TestTornReadRetry is the Get script: a miss that fills the address
// cache, a hit, an absent key, and then the Storm read protocol's
// torn-read paths provoked deterministically — a one-sided GET lands
// inside a writer's widened seqlock window, observes the odd sequence
// word, and must retry exactly once through the lookup AM, returning
// the post-write value, while a reader on the writer's own node re-reads
// until the window closes. A second pass ships every remote read as an
// AM (ReadViaAM).
func TestTornReadRetry(t *testing.T) {
	cfg := core.Config{Threads: 4, Nodes: 2, Profile: transport.GM(), Cache: core.DefaultCache(), Seed: 7}
	var key, absent uint64
	var owner, mate int
	script := func(tb *Table, tid int) []step {
		// Deterministic key homed on node 1, read from node 0 and from
		// the owner's node-mate.
		key, absent = keyOnNode(tb, 1, 1), keyOnNode(tb, 1<<40, 1)
		owner = tb.g.shardOf(key)
		mate = owner ^ 1
		switch tid {
		case owner:
			return []step{
				{op: 'p', key: key, arg: encodeValue(key, 1)},
				{op: 'b'}, {op: 'b'},
				// Open a 60µs write window immediately after the barrier.
				{op: 'p', key: key, arg: encodeValue(key, 2)},
			}
		case 0:
			return []step{
				{op: 'b'},
				// Warm the address cache: miss (AM with piggyback), then hit.
				{op: 'g', key: key}, {op: 'g', key: key},
				{op: 'g', key: absent},
				{op: 'b'},
				// Issue a one-sided read ~10µs in: it lands mid-window.
				{op: 's', d: 10 * sim.Us},
				{op: 'g', key: key},
			}
		case mate:
			return []step{
				{op: 'b'}, {op: 'b'},
				{op: 's', d: 10 * sim.Us},
				{op: 'g', key: key},
			}
		}
		return []step{{op: 'b'}, {op: 'b'}}
	}
	o := Options{Name: "torn", NumKeys: 64, WriteWindow: 60 * sim.Us}

	r := bothStyles(t, cfg, o, 0, script)
	v1, v2 := encodeValue(key, 1), encodeValue(key, 2)
	want := []outcome{{v1, true}, {v1, true}, {0, false}, {v2, true}}
	if !reflect.DeepEqual(r.Out[0], want) {
		t.Fatalf("remote reader saw %+v, want %+v (the last is the post-write value)", r.Out[0], want)
	}
	if st := r.Table[0]; st.TornRetries != 1 || st.TornRereads != 0 || st.AMLookups != 1 {
		t.Fatalf("remote reader: TornRetries %d, TornRereads %d, AMLookups %d; want 1, 0 and 1 (the retry; warm reads ride the runtime GET path)",
			st.TornRetries, st.TornRereads, st.AMLookups)
	}
	if got := r.Out[mate]; len(got) != 1 || got[0] != (outcome{v2, true}) {
		t.Fatalf("node-mate reader saw %+v, want the post-write value %#x", got, v2)
	}
	if st := r.Table[mate]; st.TornRereads == 0 || st.TornRetries != 0 || st.AMLookups != 0 {
		t.Fatalf("node-mate reader: TornRereads %d, TornRetries %d, AMLookups %d; want re-reads only", st.TornRereads, st.TornRetries, st.AMLookups)
	}

	o.ReadViaAM = true
	r = bothStyles(t, cfg, o, 0, script)
	if !reflect.DeepEqual(r.Out[0], want) {
		t.Fatalf("ReadViaAM: remote reader saw %+v, want %+v", r.Out[0], want)
	}
	if st := r.Table[0]; st.AMLookups != st.Gets || st.TornRetries != 0 {
		t.Fatalf("ReadViaAM: %d of %d remote reads were AMs, %d torn retries; want all and none", st.AMLookups, st.Gets, st.TornRetries)
	}
}

// TestPutGet is the Put script: inserts, reads back, in-place updates,
// and a probe window filled until a Put overflows — at the writer's own
// shard (direct, under the lock) and at a remote one (by AM). Then it
// reads back the raw bucket lines the Puts wrote: the co-located writer
// and the home node's put handler must leave the same bytes a single
// sequential writer would — the slots it fills, and a sequence word of
// two per write that landed on the line.
func TestPutGet(t *testing.T) {
	cfg := core.Config{Threads: 4, Nodes: 2, Profile: transport.GM(), Cache: core.DefaultCache(), Seed: 3}
	// sameWindow lists n keys above 1000 that hash to one probe window of
	// a shard on node.
	sameWindow := func(tb *Table, node, n int) []uint64 {
		first := keyOnNode(tb, 1000, node)
		s, b := tb.g.shardOf(first), tb.g.bucketOf(first)
		var keys []uint64
		for k := first; len(keys) < n; k++ {
			if tb.g.shardOf(k) == s && tb.g.bucketOf(k) == b {
				keys = append(keys, k)
			}
		}
		return keys
	}
	const window = probeWindow * slotsPerBucket
	// model is what one sequential writer leaves on each line it writes:
	// its (key, value) slots and the writes that landed on it.
	type lineModel struct {
		slots  [slotsPerBucket][2]uint64
		writes uint64
	}
	var model map[int64]*lineModel
	var written []int64        // the lines model holds, in first-write order
	var windows [2][]int64     // the window lines filled on node 0 and on node 1
	var fill [2]map[uint64]int // each window key's place in its fill order
	put := func(tb *Table, k, v uint64) {
		s, b := tb.g.shardOf(k), tb.g.bucketOf(k)
		for p := int64(0); p < probeWindow; p++ {
			idx := tb.g.lineIdx(s, (b+p)%tb.g.buckets)
			m := model[idx]
			if m == nil {
				m = &lineModel{}
			}
			for i, kv := range m.slots {
				if kv[0] == k || kv[0] == emptyKey {
					if model[idx] == nil {
						model[idx] = m
						written = append(written, idx)
					}
					m.slots[i] = [2]uint64{k, v}
					m.writes++
					return
				}
			}
		}
	}
	script := func(tb *Table, tid int) []step {
		if tid != 0 {
			return nil
		}
		model, written = map[int64]*lineModel{}, nil
		var ss []step
		p := func(k, v uint64) {
			ss = append(ss, step{op: 'p', key: k, arg: v})
			put(tb, k, v)
		}
		for k := uint64(1); k <= 32; k++ {
			p(k, encodeValue(k, 9))
		}
		for k := uint64(1); k <= 32; k++ {
			ss = append(ss, step{op: 'g', key: k})
		}
		for k := uint64(1); k <= 32; k++ { // every key updates in place
			p(k, encodeValue(k, 10))
		}
		for k := uint64(1); k <= 32; k++ {
			ss = append(ss, step{op: 'g', key: k})
		}
		for node := 0; node < 2; node++ {
			keys := sameWindow(tb, node, window+1)
			fill[node], windows[node] = map[uint64]int{}, nil
			for i, k := range keys {
				p(k, encodeValue(k, 11))
				fill[node][k] = i
			}
			s, b := tb.g.shardOf(keys[0]), tb.g.bucketOf(keys[0])
			for i := int64(0); i < probeWindow; i++ {
				windows[node] = append(windows[node], tb.g.lineIdx(s, (b+i)%tb.g.buckets))
			}
		}
		for _, idx := range written {
			ss = append(ss, step{op: 'l', key: uint64(idx)})
		}
		return ss
	}
	r := bothStyles(t, cfg, Options{Name: "pg", NumKeys: 128}, 0, script)

	out := r.Out[0]
	take := func(n int) []outcome {
		head := out[:n]
		out = out[n:]
		return head
	}
	for i, o := range take(32) {
		if !o.ok {
			t.Fatalf("put of key %d failed", i+1)
		}
	}
	for i, o := range take(32) {
		if k := uint64(i + 1); o != (outcome{encodeValue(k, 9), true}) {
			t.Fatalf("get after put of key %d: %+v", k, o)
		}
	}
	for i, o := range take(32) {
		if !o.ok {
			t.Fatalf("rewrite of key %d failed", i+1)
		}
	}
	for i, o := range take(32) {
		if k := uint64(i + 1); o != (outcome{encodeValue(k, 10), true}) {
			t.Fatalf("rewritten key %d reads %+v", k, o)
		}
	}
	for node := 0; node < 2; node++ {
		puts := take(window + 1)
		if !puts[0].ok || puts[window].ok {
			t.Fatalf("node %d: filling one probe window: first put %v, put %d %v; want true and an overflow", node, puts[0].ok, window+1, puts[window].ok)
		}
	}
	if st := r.Table[0]; st.Overflows < 2 || st.LocalOps == 0 || st.RemoteOps == 0 {
		t.Fatalf("stats %+v: want overflows at both nodes, and both local and remote ops", st)
	}

	// The raw lines, against the sequential writer.
	lines := map[int64][bucketBytes]byte{}
	for i, idx := range written {
		lines[idx] = r.Lines[0][i]
	}
	word := func(ln [bucketBytes]byte, w int) uint64 { return binary.LittleEndian.Uint64(ln[8*w:]) }
	for _, idx := range written {
		ln, m := lines[idx], model[idx]
		if seq := word(ln, 0); seq%2 != 0 || seq != 2*m.writes {
			t.Errorf("line %d: sequence word %d after %d writes, want %d", idx, seq, m.writes, 2*m.writes)
		}
		for i, kv := range m.slots {
			if k, v := word(ln, 1+2*i), word(ln, 2+2*i); k != kv[0] || v != kv[1] {
				t.Errorf("line %d slot %d holds (%d, %#x), want (%d, %#x)", idx, i, k, v, kv[0], kv[1])
			}
		}
	}
	// The filled windows: one written by the co-located writer, one by
	// the home node's handler, and the same slot layout on both.
	layout := func(node int) (l [probeWindow][slotsPerBucket]int) {
		for p, idx := range windows[node] {
			for i := range l[p] {
				k := word(lines[idx], 1+2*i)
				pos, ok := fill[node][k]
				if !ok {
					pos = -1
				}
				l[p][i] = pos
			}
		}
		return l
	}
	if l0, l1 := layout(0), layout(1); l0 != l1 {
		t.Errorf("window slot layouts differ: co-located writer %v, home-node handler %v", l0, l1)
	}
}

// TestEmptyKeyRejected: key 0 is the empty-slot sentinel, so a Get of
// it on a preloaded table fails the way a Put does, naming the
// sentinel, instead of matching the first free slot of its window and
// reporting an absent key present.
func TestEmptyKeyRejected(t *testing.T) {
	const want = "collides with the empty-slot sentinel"
	for _, tc := range []struct {
		name string
		call func(tb *Table, th *core.Thread)
	}{
		{"Put", func(tb *Table, th *core.Thread) { tb.PutC(th, emptyKey, 1, func(bool) {}) }},
		{"Get", func(tb *Table, th *core.Thread) { tb.GetC(th, emptyKey, func(uint64, bool) {}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); !strings.Contains(fmt.Sprint(r), want) {
					t.Fatalf("recovered %v, want a panic mentioning %q", r, want)
				}
			}()
			rt, err := core.NewRuntime(testConfig(core.DefaultCache()))
			if err != nil {
				t.Fatal(err)
			}
			defer rt.K.Shutdown()
			_, _ = rt.RunCont(func(th *core.Thread, done func()) {
				NewC(th, Options{NumKeys: testKeys}, func(tb *Table) {
					PreloadC(th, tb, testKeys, func(int64) {
						if th.ID() == 0 {
							tc.call(tb, th)
						}
						done()
					})
				})
			})
		})
	}
}

// TestStylesAgreeUnderContention runs a seeded random mix of Gets and
// Puts from every thread at once over a key space small enough
// that writers queue on the shard locks and readers meet open write
// windows, through both API styles.
func TestStylesAgreeUnderContention(t *testing.T) {
	const numKeys, opsPerThread = 24, 150
	script := func(tb *Table, tid int) []step {
		rng := rand.New(rand.NewSource(int64(1000 + tid)))
		ss := make([]step, opsPerThread)
		for i := range ss {
			key := uint64(1 + rng.Intn(numKeys))
			if rng.Intn(10) < 6 {
				ss[i] = step{op: 'g', key: key}
			} else {
				ss[i] = step{op: 'p', key: key, arg: encodeValue(key, uint32(i))}
			}
		}
		return ss
	}
	o := Options{Name: "mix", NumKeys: 2 * numKeys, WriteWindow: 2 * sim.Us}
	r := bothStyles(t, testConfig(core.DefaultCache()), o, 2*numKeys, script)
	var total Stats
	for _, st := range r.Table {
		total.Add(st)
	}
	if total.TornRetries == 0 || total.TornRereads == 0 {
		t.Fatalf("the mix did not reach every path: %+v", total)
	}
}

// TestZipfShape sanity-checks the sampler: ranks stay in range, skew
// favours rank 1, and theta 0 is uniform-ish.
func TestZipfShape(t *testing.T) {
	const n, draws = 100, 20000
	rng := rand.New(rand.NewSource(1))
	z := mustZipf(t, n, 0.99)
	counts := make([]int, n+1)
	for i := 0; i < draws; i++ {
		r := z.Next(rng)
		if r < 1 || r > n {
			t.Fatalf("rank %d out of [1,%d]", r, n)
		}
		counts[r]++
	}
	if counts[1] < draws/10 {
		t.Fatalf("theta=0.99: rank 1 drawn %d/%d times, want heavy head", counts[1], draws)
	}
	u := mustZipf(t, n, 0)
	uc := make([]int, n+1)
	for i := 0; i < draws; i++ {
		r := u.Next(rng)
		if r < 1 || r > n {
			t.Fatalf("uniform rank %d out of range", r)
		}
		uc[r]++
	}
	if uc[1] > 3*draws/n {
		t.Fatalf("theta=0: rank 1 drawn %d times, want ~%d", uc[1], draws/n)
	}
	for k := int64(1); k <= 1000; k++ {
		key := ScrambleKey(k, 64)
		if key < 1 || key > 64 {
			t.Fatalf("scrambled key %d out of [1,64]", key)
		}
	}
}

// TestWorkloadValidate rejects the parameter garbage the CLIs guard.
func TestWorkloadValidate(t *testing.T) {
	good := testWorkload()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid workload rejected: %v", err)
	}
	nan := 0.0
	nan = nan / nan
	bad := []Workload{
		{Ops: 0, NumKeys: 1, ReadFrac: 0.5},
		{Ops: -3, NumKeys: 1, ReadFrac: 0.5},
		{Ops: 1, NumKeys: 0, ReadFrac: 0.5},
		{Ops: 1, NumKeys: 1, Theta: nan, ReadFrac: 0.5},
		{Ops: 1, NumKeys: 1, Theta: 1.0, ReadFrac: 0.5},
		{Ops: 1, NumKeys: 1, Theta: -0.1, ReadFrac: 0.5},
		{Ops: 1, NumKeys: 1, ReadFrac: nan},
		{Ops: 1, NumKeys: 1, ReadFrac: 1.5},
		{Ops: 1, NumKeys: 1, ReadFrac: -0.5},
		{Ops: 1, NumKeys: 1, ReadFrac: 0.5, Rate: nan},
		{Ops: 1, NumKeys: 1, ReadFrac: 0.5, Rate: -1},
	}
	for i, w := range bad {
		if err := w.Validate(); err == nil {
			t.Fatalf("bad workload %d accepted: %+v", i, w)
		}
	}
}

// TestQuantile checks the histogram quantile walks buckets correctly
// and that every q — including the edges — follows the single
// bucket-midpoint convention (no separate LatMax path).
func TestQuantile(t *testing.T) {
	var r ThreadResult
	if r.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile not 0")
	}
	r.Hist[10] = 90      // [512, 1024) ps
	r.Hist[20] = 10      // [512k, 1M) ps
	r.LatMax = 123456789 // deliberately not a bucket midpoint
	p50 := r.Quantile(0.50)
	p99 := r.Quantile(0.99)
	if p50 < 512 || p50 >= 1024 {
		t.Fatalf("p50 = %d, want within bucket 10", p50)
	}
	if p99 < 512<<10 || p99 >= 1<<20 {
		t.Fatalf("p99 = %d, want within bucket 20", p99)
	}
	// Edge conventions: q>=1 clamps to the last sample and lands in the
	// last populated bucket — same figure as any q inside it, never
	// LatMax. q<=0 clamps to the first sample.
	if got := r.Quantile(1.0); got != p99 {
		t.Fatalf("Quantile(1.0) = %d, want bucket midpoint %d", got, p99)
	}
	if got := r.Quantile(2.0); got != p99 {
		t.Fatalf("Quantile(2.0) = %d, want bucket midpoint %d", got, p99)
	}
	if got := r.Quantile(0); got != p50 {
		t.Fatalf("Quantile(0) = %d, want first-bucket midpoint %d", got, p50)
	}
	if got := r.Quantile(-0.5); got != p50 {
		t.Fatalf("Quantile(-0.5) = %d, want first-bucket midpoint %d", got, p50)
	}
	// Zero-latency samples report exactly 0 under the same convention.
	var z ThreadResult
	z.Hist[0] = 4
	if z.Quantile(0.5) != 0 {
		t.Fatal("bucket-0 quantile not 0")
	}
}

// TestMergeOrderInvariance: the merged checksum is salted by thread
// id, not slice position, so any permutation of the per-thread
// results merges to the same digest.
func TestMergeOrderInvariance(t *testing.T) {
	rs := make([]ThreadResult, 8)
	rng := rand.New(rand.NewSource(99))
	for i := range rs {
		rs[i] = ThreadResult{Thread: i, Ops: int64(i + 1), Checksum: rng.Uint64()}
	}
	want := Merge(rs)
	shuffled := append([]ThreadResult(nil), rs...)
	for trial := 0; trial < 10; trial++ {
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		got := Merge(shuffled)
		if got.Checksum != want.Checksum || got.Ops != want.Ops {
			t.Fatalf("shuffled merge diverged: %+v vs %+v", got, want)
		}
	}
	// Distinct threads must still produce distinct digests (the salt is
	// not a no-op).
	rs[0].Thread, rs[1].Thread = rs[1].Thread, rs[0].Thread
	if Merge(rs).Checksum == want.Checksum {
		t.Fatal("swapping thread ids left the merged checksum unchanged")
	}
}

// TestPreloadContents: the O(keys)-total partitioned preload must
// install exactly the contents the old per-thread skip-scan did —
// every key in [1, NumKeys] present with its stamp-0 value, counts
// matching a brute-force ownership recount.
func TestPreloadContents(t *testing.T) {
	const numKeys = 256
	cfg := core.Config{Threads: 8, Nodes: 4, Profile: transport.GM(), Cache: core.DefaultCache(), Seed: 11}
	rt, err := core.NewRuntime(cfg)
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	counts := make([]int64, cfg.Threads)
	_, err = rt.Run(func(th *core.Thread) {
		tb := New(th, Options{Name: "pre", NumKeys: numKeys})
		counts[th.ID()] = Preload(th, tb, numKeys)
		if th.ID() == 0 {
			for k := uint64(1); k <= numKeys; k++ {
				v, ok := tb.Get(th, k)
				if !ok || v != encodeValue(k, 0) {
					panic(fmt.Sprintf("preloaded key %d: got (%#x, %v), want (%#x, true)", k, v, ok, encodeValue(k, 0)))
				}
			}
		}
		th.Barrier()
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	g := normalize(&Options{Name: "pre", NumKeys: numKeys}, cfg.Threads)
	var total int64
	for tid := 0; tid < cfg.Threads; tid++ {
		var want int64
		for k := uint64(1); k <= numKeys; k++ {
			if g.shardOf(k) == tid {
				want++
			}
		}
		if counts[tid] != want {
			t.Fatalf("thread %d inserted %d keys, brute-force ownership says %d", tid, counts[tid], want)
		}
		total += counts[tid]
	}
	if total != numKeys {
		t.Fatalf("preload installed %d keys, want %d", total, numKeys)
	}
}
