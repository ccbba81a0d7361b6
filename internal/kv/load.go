package kv

// Open-loop load generation over the Table: each thread issues
// operations on a fixed schedule (op i is due at start + i/rate)
// independent of completion times, so measured latencies include any
// backlog the system accumulates — the coordinated-omission-free
// convention. Key popularity is scrambled-Zipfian, the read/write mix
// a Bernoulli draw, and every random decision comes from the thread's
// deterministic source in a fixed order (key first, then op kind), so
// a run is bit-reproducible for a config seed across repeats and host
// parallelism.

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"xlupc/internal/core"
	"xlupc/internal/sim"
)

// DefaultSLO is the per-op latency bound availability is measured
// against when Workload.SLO is zero.
const DefaultSLO = 200 * sim.Us

// Workload shapes one thread's share of the offered load.
type Workload struct {
	Ops      int64        // operations this thread issues
	NumKeys  int64        // key population (shared with Preload and the Zipf sampler)
	Theta    float64      // Zipfian skew in [0,1); 0 = uniform
	ReadFrac float64      // fraction of ops that are GETs, in [0,1]
	Rate     float64      // offered rate per thread in ops/sec; 0 = closed loop
	SLO      sim.Duration // per-op latency SLO (0 = DefaultSLO)
}

// Validate rejects parameter values the generator cannot honor.
func (w Workload) Validate() error {
	if w.Ops <= 0 {
		return fmt.Errorf("kv: workload ops %d must be positive", w.Ops)
	}
	if w.NumKeys <= 0 {
		return fmt.Errorf("kv: workload key population %d must be positive", w.NumKeys)
	}
	if math.IsNaN(w.Theta) || w.Theta < 0 || w.Theta >= 1 {
		return fmt.Errorf("kv: zipf theta %v outside [0,1)", w.Theta)
	}
	if math.IsNaN(w.ReadFrac) || w.ReadFrac < 0 || w.ReadFrac > 1 {
		return fmt.Errorf("kv: read fraction %v outside [0,1]", w.ReadFrac)
	}
	if math.IsNaN(w.Rate) || math.IsInf(w.Rate, 0) || w.Rate < 0 {
		return fmt.Errorf("kv: offered rate %v must be finite and non-negative", w.Rate)
	}
	return nil
}

// interval is the open-loop issue spacing (0 = closed loop).
func (w Workload) interval() sim.Time {
	if w.Rate <= 0 {
		return 0
	}
	return sim.Time(float64(sim.Sec) / w.Rate)
}

func (w Workload) slo() sim.Time {
	if w.SLO > 0 {
		return w.SLO
	}
	return DefaultSLO
}

// ThreadResult is one thread's generator outcome. Latency lands in
// log2 buckets of picoseconds (bucket b holds [2^(b-1), 2^b) ps), and
// Checksum digests (key, value, presence, latency) of every op — so
// two runs agree iff they performed the same ops with the same results
// at the same virtual times.
type ThreadResult struct {
	Thread             int // issuing thread id (salts the merged checksum)
	Ops, Reads, Writes int64
	Found              int64 // reads that found their key
	SLOMet             int64 // ops completing within the SLO
	LatSum, LatMax     sim.Time
	Hist               [64]int64
	Checksum           uint64
}

// Availability is the fraction of ops that met the SLO.
func (r ThreadResult) Availability() float64 {
	if r.Ops == 0 {
		return 0
	}
	return float64(r.SLOMet) / float64(r.Ops)
}

// Merge folds per-thread results into one. The checksum salt comes
// from each result's issuing thread id — not its slice position — so
// the merged digest is invariant under any ordering of rs (a caller
// collecting results through a channel gets the same figure as one
// indexing by thread id), while still distinguishing which thread
// performed which ops.
func Merge(rs []ThreadResult) ThreadResult {
	var m ThreadResult
	for _, r := range rs {
		m.Ops += r.Ops
		m.Reads += r.Reads
		m.Writes += r.Writes
		m.Found += r.Found
		m.SLOMet += r.SLOMet
		m.LatSum += r.LatSum
		if r.LatMax > m.LatMax {
			m.LatMax = r.LatMax
		}
		for b := range r.Hist {
			m.Hist[b] += r.Hist[b]
		}
		m.Checksum ^= r.Checksum + uint64(r.Thread)*0x9E37
	}
	return m
}

// Quantile estimates the q-quantile latency from the histogram under
// one convention for every q: clamp the rank into [0, total-1], find
// the bucket holding that sample, and return bucketMid of it. q<=0
// lands in the first occupied bucket, q>=1 in the last — there is no
// separate LatMax path, so Quantile(1) and Quantile(0.999...) agree
// on the same order-of-magnitude figure.
func (r ThreadResult) Quantile(q float64) sim.Time {
	total := int64(0)
	for _, c := range r.Hist {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := int64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	if rank < 0 {
		rank = 0
	}
	var cum int64
	for b, c := range r.Hist {
		cum += c
		if cum > rank {
			return bucketMid(b)
		}
	}
	// Unreachable: cum reaches total, and rank < total.
	return bucketMid(len(r.Hist) - 1)
}

// bucketMid is the single latency convention for log2 bucket b: the
// geometric midpoint 2^b/sqrt(2) of [2^(b-1), 2^b), with bucket 0
// (exactly-zero latency) reporting 0.
func bucketMid(b int) sim.Time {
	if b == 0 {
		return 0
	}
	return sim.Time(float64(uint64(1)<<uint(b)) / math.Sqrt2)
}

// encodeValue tags a write so readers can verify slot integrity: the
// low word echoes the key, the high word stamps the writing op.
func encodeValue(key uint64, stamp uint32) uint64 {
	return uint64(stamp)<<32 | uint64(uint32(key))
}

// checkValue asserts the read value echoes its key — a torn or
// misrouted read would trip this.
func checkValue(key, val uint64) {
	if uint32(val) != uint32(key) {
		panic(fmt.Sprintf("kv: value %#x does not echo key %#x — torn read escaped detection", val, key))
	}
}

// preloadPartition builds (once per run, host-side) the owned-key list
// of every shard in ascending key order. Before this the preload loop
// in every thread scanned all NumKeys keys and skipped the ones it did
// not own — O(keys·threads) host work in total, which dominated setup
// at large thread counts. The partition is computed by whichever
// thread asks first and shared through the run-local registry, so the
// total cost is one O(keys) pass; each thread then walks only its own
// slice. shardOf is a hash, not an arithmetic stride, so there is no
// closed form for "my next key" — precomputing the partition is the
// way to get per-thread work down to O(keys/threads).
func preloadPartition(t *core.Thread, tb *Table, numKeys int64) [][]uint64 {
	key := fmt.Sprintf("kv:preload:%s:%d", tb.opts.Name, numKeys)
	return t.Runtime().RunLocal(key, func() any {
		part := make([][]uint64, tb.g.threads)
		for k := uint64(1); k <= uint64(numKeys); k++ {
			s := tb.g.shardOf(k)
			part[s] = append(part[s], k)
		}
		return part
	}).([][]uint64)
}

// PreloadC collectively installs every key in [1, NumKeys]: each thread
// inserts the keys its shard owns (all home-local direct writes, in
// ascending key order, exactly as the old skip-scan produced), and the
// closing barrier orders the population before any load. It passes then
// this thread's insert count.
func PreloadC(t *core.Thread, tb *Table, numKeys int64, then func(n int64)) {
	mine := preloadPartition(t, tb, numKeys)[t.ID()]
	n := 0
	var next func(ok bool)
	next = func(ok bool) {
		if !ok {
			panic(fmt.Sprintf("kv: preload overflow inserting key %d — its probe window is full", mine[n-1]))
		}
		if n == len(mine) {
			t.BarrierC(func() { then(int64(n)) })
			return
		}
		k := mine[n]
		n++
		tb.PutC(t, k, encodeValue(k, 0), next)
	}
	next(true)
}

// Preload is PreloadC for a blocking body.
func Preload(t *core.Thread, tb *Table, numKeys int64) (n int64) {
	t.Await(sim.Func(func() {
		PreloadC(t, tb, numKeys, func(m int64) { n = m; t.Resume() })
	}), 0)
	return n
}

// fnv1a constants (64-bit).
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// mix64 folds one word into an FNV-1a digest byte by byte.
func mix64(h, v uint64) uint64 {
	for s := uint(0); s < 64; s += 8 {
		h ^= (v >> s) & 0xff
		h *= fnvPrime
	}
	return h
}

// RunLoadC drives one thread's share of the workload to completion and
// passes then its result. The caller preloads and barriers first.
func RunLoadC(t *core.Thread, tb *Table, w Workload, z *Zipf, then func(ThreadResult)) {
	if err := w.Validate(); err != nil {
		panic(err)
	}
	l := &loader{
		t: t, tb: tb, w: w, z: z, rng: t.Rand(),
		interval: w.interval(), slo: w.slo(), start: t.Now(),
		res: ThreadResult{Thread: t.ID()}, h: fnvOffset, then: then,
	}
	l.dispatchFn, l.gotFn, l.putFn = l.dispatch, l.got, l.put
	l.iter()
}

// loader is one thread's load in progress: a ladder of steps over one
// record, each bound once, so the loop allocates nothing per operation.
type loader struct {
	t        *core.Thread
	tb       *Table
	w        Workload
	z        *Zipf
	rng      *rand.Rand
	interval sim.Time
	slo      sim.Time
	start    sim.Time
	res      ThreadResult
	h        uint64 // the running digest
	then     func(ThreadResult)

	i        int64    // operations completed
	issue    sim.Time // when the operation in flight was due
	key, val uint64   // ... its key, and a Put's value

	dispatchFn func()
	gotFn      func(val uint64, ok bool)
	putFn      func(ok bool)
}

// iter starts the next operation when it is due, or ends the load.
func (l *loader) iter() {
	if l.i >= l.w.Ops {
		l.res.Checksum = l.h
		l.then(l.res)
		return
	}
	l.issue = l.t.Now()
	if l.interval > 0 {
		l.issue = l.start + sim.Time(l.i)*l.interval
		if now := l.t.Now(); now < l.issue {
			l.t.SleepC(l.issue-now, l.dispatchFn)
			return
		}
	}
	l.dispatch()
}

// dispatch draws the operation's key, then its kind, and issues it.
func (l *loader) dispatch() {
	l.key = ScrambleKey(l.z.Next(l.rng), l.w.NumKeys)
	if l.rng.Float64() < l.w.ReadFrac {
		l.tb.GetC(l.t, l.key, l.gotFn)
		return
	}
	l.val = encodeValue(l.key, uint32(l.i))
	l.tb.PutC(l.t, l.key, l.val, l.putFn)
}

func (l *loader) got(val uint64, ok bool) {
	if ok {
		checkValue(l.key, val)
		l.res.Found++
	}
	l.res.Reads++
	l.done(val, ok)
}

func (l *loader) put(ok bool) {
	l.res.Writes++
	l.done(l.val, ok)
}

// done accounts the operation in flight and goes on to the next.
func (l *loader) done(val uint64, ok bool) {
	lat := l.t.Now() - l.issue
	l.h = accountOp(&l.res, l.key, val, ok, lat, l.slo, l.h)
	l.i++
	l.iter()
}

// accountOp folds one completed op into the result and the digest.
func accountOp(res *ThreadResult, key, val uint64, ok bool, lat, slo sim.Time, h uint64) uint64 {
	res.Ops++
	res.LatSum += lat
	if lat > res.LatMax {
		res.LatMax = lat
	}
	if lat <= slo {
		res.SLOMet++
	}
	res.Hist[bits.Len64(uint64(lat))]++
	h = mix64(h, key)
	h = mix64(h, val)
	okw := uint64(0)
	if ok {
		okw = 1
	}
	h = mix64(h, okw)
	return mix64(h, uint64(lat))
}
