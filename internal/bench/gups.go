package bench

// GUPS-style RandomAccess figure: every thread streams read-modify-
// write updates at a partner thread's block of a distributed table,
// once per protocol — blocking GET+compute+PUT (the baseline every
// update used to be), split-phase coalesced remote atomics, and
// blocking remote atomics — so the one-message-per-update claim is
// measured against the two-message baseline on identical work.
//
// Update targets are partitioned: thread i only ever touches its
// partner's block and no other thread touches it, so there are no
// cross-thread RMW races and all three protocols produce bit-identical
// final table contents. The checksum folds that final memory, making
// cross-protocol equality a correctness assertion, not a coincidence.

import (
	"fmt"
	"io"

	"xlupc/internal/core"
	"xlupc/internal/dis"
	"xlupc/internal/sim"
	"xlupc/internal/stats"
	"xlupc/internal/transport"
)

// GUPSProto selects the update protocol.
type GUPSProto int

const (
	// GUPSGetPut is the baseline: blocking GET, local add, PUT, fence —
	// two messages and two round trips per update.
	GUPSGetPut GUPSProto = iota
	// GUPSSplit issues split-phase Accumulate atomics in batches retired
	// by one sync, so updates to one destination coalesce into shared
	// frames.
	GUPSSplit
	// GUPSAtomic is one blocking FetchAdd per update: a single message
	// executed at the target.
	GUPSAtomic
)

func (p GUPSProto) String() string {
	switch p {
	case GUPSSplit:
		return "split"
	case GUPSAtomic:
		return "atomic"
	default:
		return "getput"
	}
}

// GUPSProtos is the fixed figure order, baseline first.
func GUPSProtos() []GUPSProto { return []GUPSProto{GUPSGetPut, GUPSSplit, GUPSAtomic} }

// gupsBatch is the split-phase issue window between syncs.
const gupsBatch = 8

// GUPSOpts configures one GUPS run.
type GUPSOpts struct {
	Scale   Scale
	Prof    *transport.Profile
	Words   int64 // table words per thread
	Updates int64 // updates per thread
}

// GUPSResult is one protocol's outcome.
type GUPSResult struct {
	Proto        GUPSProto
	Checksum     uint64   // fold of the final table contents
	Elapsed      sim.Time // virtual time of the update phase alone
	UpdatesPerMs float64  // completed updates per virtual millisecond, all threads
	Run          core.RunStats
}

// partner picks the block thread tid updates: half the machine away,
// so with more than one node every update crosses the wire.
func (o GUPSOpts) partner(tid int) int64 {
	t := int64(o.Scale.Threads)
	return (int64(tid) + t/2) % t
}

// RunGUPS runs the update stream under one protocol. Same options, same
// figures — bit for bit — whatever the host parallelism.
func (s Sweep) RunGUPS(proto GUPSProto, o GUPSOpts) GUPSResult {
	if o.Words <= 0 || o.Updates <= 0 {
		panic(fmt.Sprintf("bench: gups needs positive words (%d) and updates (%d)", o.Words, o.Updates))
	}
	cfg := core.Config{
		Threads: o.Scale.Threads, Nodes: o.Scale.Nodes, Profile: o.Prof,
		Cache: core.DefaultCache(), Seed: s.Seed,
	}
	rt, err := core.NewRuntime(cfg)
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	checks := make([]uint64, cfg.Threads)
	var span sim.Time
	st, err := rt.Run(func(t *core.Thread) { s.gupsBody(t, proto, o, checks, &span) })
	if err != nil {
		panic(fmt.Sprintf("bench: gups run failed: %v", err))
	}
	res := GUPSResult{Proto: proto, Checksum: dis.Checksum(checks), Elapsed: span, Run: st}
	if us := span.Usecs(); us > 0 {
		res.UpdatesPerMs = float64(int64(cfg.Threads)*o.Updates) / (us / 1000)
	}
	return res
}

// gupsBody is the thread body.
func (s Sweep) gupsBody(t *core.Thread, proto GUPSProto, o GUPSOpts, checks []uint64, span *sim.Time) {
	n := int64(t.Threads()) * o.Words
	a := t.AllAlloc("gups", n, 8, o.Words)
	base := int64(t.ID()) * o.Words
	for i := int64(0); i < o.Words; i++ {
		t.PutUint64(a.At(base+i), sim.SplitMix64(uint64(s.Seed)^uint64(base+i)))
	}
	// draw is the protocol-independent (offset, delta) of update k.
	draw := func(k int64) (off int64, delta uint64) {
		h := sim.SplitMix64(uint64(s.Seed)*0x9E3779B9 ^ uint64(t.ID())<<32 ^ uint64(k))
		return int64(h % uint64(o.Words)), sim.SplitMix64(h)%255 + 1
	}
	t.Barrier()
	t0 := t.Now()
	pbase := o.partner(t.ID()) * o.Words
	switch proto {
	case GUPSSplit:
		for k := int64(0); k < o.Updates; k++ {
			off, delta := draw(k)
			t.NbAccumulate(a.At(pbase+off), delta)
			if (k+1)%gupsBatch == 0 {
				t.SyncAll()
			}
		}
		t.SyncAll()
	case GUPSAtomic:
		for k := int64(0); k < o.Updates; k++ {
			off, delta := draw(k)
			t.FetchAdd(a.At(pbase+off), delta)
		}
	default: // GUPSGetPut
		for k := int64(0); k < o.Updates; k++ {
			off, delta := draw(k)
			at := a.At(pbase + off)
			v := t.GetUint64(at)
			t.PutUint64(at, v+delta)
			// The fence makes the next read of this word see the write —
			// the blocking baseline's consistency cost.
			t.Fence()
		}
	}
	t.Fence()
	t.Barrier()
	if t.ID() == 0 {
		*span = t.Now() - t0
	}
	var sum uint64
	for i := int64(0); i < o.Words; i++ {
		sum = sum*0x100000001b3 ^ t.GetUint64(a.At(base+i))
	}
	checks[t.ID()] = sum
	t.Barrier()
}

// GUPSPoint is one protocol's row of the figure, with the improvement
// of its update-phase time over the GET+PUT baseline.
type GUPSPoint struct {
	Result      GUPSResult
	Improvement float64 // % update-phase time saved vs getput (baseline row: 0)
}

// GUPSSweep runs the three protocols on one transport. The protocols
// run across the sweep's workers in deterministic output order; the
// checksum is asserted identical across them (a protocol that loses an
// update or misroutes one would diverge).
func (s Sweep) GUPSSweep(prof *transport.Profile, sc Scale, o GUPSOpts) []GUPSPoint {
	protos := GUPSProtos()
	results := make([]GUPSResult, len(protos))
	s.parfor(len(protos), func(i int) {
		p := o
		p.Prof, p.Scale = prof, sc
		results[i] = s.RunGUPS(protos[i], p)
	})
	base := results[0]
	pts := make([]GUPSPoint, len(protos))
	for i, r := range results {
		if r.Checksum != base.Checksum {
			panic(fmt.Sprintf("bench: gups %s checksum %#x diverged from %s %#x",
				r.Proto, r.Checksum, base.Proto, base.Checksum))
		}
		pts[i] = GUPSPoint{Result: r,
			Improvement: stats.Improvement(float64(base.Elapsed), float64(r.Elapsed))}
	}
	return pts
}

// PrintGUPS emits one transport's GUPS table and returns its points.
func (s Sweep) PrintGUPS(w io.Writer, prof *transport.Profile, sc Scale, o GUPSOpts) []GUPSPoint {
	pts := s.GUPSSweep(prof, sc, o)
	fmt.Fprintf(w, "# GUPS — %s, %s: %d words/thread, %d updates/thread, batch %d (one-message-per-update vs GET+compute+PUT)\n",
		prof.Name, sc, o.Words, o.Updates, gupsBatch)
	fmt.Fprintf(w, "%8s %10s %12s %8s %10s %17s\n",
		"protocol", "upd/ms", "elapsed(us)", "msgs", "improv(%)", "checksum")
	for _, pt := range pts {
		fmt.Fprintf(w, "%8s %10.2f %12.2f %8d %s %17x\n",
			pt.Result.Proto, pt.Result.UpdatesPerMs, pt.Result.Elapsed.Usecs(),
			pt.Result.Run.Messages, fmtImprov(10, pt.Improvement), pt.Result.Checksum)
	}
	return pts
}
