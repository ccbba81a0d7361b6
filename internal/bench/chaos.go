package bench

import (
	"fmt"
	"io"

	"xlupc/internal/core"
	"xlupc/internal/dis"
	"xlupc/internal/fault"
	"xlupc/internal/flight"
	"xlupc/internal/mem"
	"xlupc/internal/sim"
	"xlupc/internal/stats"
	"xlupc/internal/transport"
)

// ChaosFaults maps a headline loss rate to a full hazard mix: drops at
// the given rate, corruption and duplication at half of it, occasional
// extra latency, and periodic NIC stalls whose likelihood scales with
// the loss. loss <= 0 returns the zero Config — no hazards, but the
// reliable-delivery layer still runs (its pure overhead point).
func ChaosFaults(loss float64) fault.Config {
	if loss <= 0 {
		return fault.Config{}
	}
	stallProb := loss * 10
	if stallProb > 1 {
		stallProb = 1
	}
	return fault.Config{
		Drop:      loss,
		Corrupt:   loss / 2,
		Duplicate: loss / 2,
		Delay:     loss * 2,
		DelayMax:  30 * sim.Us,

		StallEvery: 2 * sim.Ms,
		StallProb:  stallProb,
		StallMax:   150 * sim.Us,
	}
}

// ChaosPoint is one loss-rate measurement of a degradation curve.
type ChaosPoint struct {
	Loss        float64
	GetUs       float64       // mean small-message cached GET latency, µs
	PutUs       float64       // mean small-message cached PUT latency, µs
	Improvement float64       // stressmark improvement of the cache, %
	Checksum    uint64        // stressmark self-verification value
	Run         core.RunStats // the cached run: hit rate, hazards applied, reliability work
}

// runChaosMark runs one stressmark under the given fault config, with
// the sweep's flight rings when it has them, and returns its stats, the
// combined self-verification checksum, and the runtime (for
// flight-recorder post-mortems).
func (s Sweep) runChaosMark(mark string, sc Scale, prof *transport.Profile, cc core.CacheConfig, fc *fault.Config) (core.RunStats, uint64, *core.Runtime) {
	return runMark(mark, core.Config{
		Threads: sc.Threads, Nodes: sc.Nodes, Profile: prof, Cache: cc, Seed: s.Seed,
		Fault: fc, Flight: s.Flight,
	}, dis.Params{})
}

// ChaosSweep measures a degradation curve: the stressmark and the
// small-message microbenchmarks at each loss rate, all over the
// reliable-delivery layer. Every point's checksum must match the
// loss-free one — the fast path staying correct is the experiment's
// whole claim — and a cache-on/cache-off divergence panics outright,
// after a flight dump when s.Flight gives the runs rings and a sink.
func (s Sweep) ChaosSweep(mark string, prof *transport.Profile, sc Scale, losses []float64) []ChaosPoint {
	pts := make([]ChaosPoint, len(losses))
	s.parfor(len(losses), func(i int) {
		fc := ChaosFaults(losses[i])
		z, zsum, _ := s.runChaosMark(mark, sc, prof, core.NoCache(), &fc)
		w, wsum, wrt := s.runChaosMark(mark, sc, prof, core.DefaultCache(), &fc)
		if zsum != wsum {
			divergenceDump(wrt, fmt.Sprintf("%s at loss %g: checksum changed by cache: %x vs %x",
				mark, losses[i], zsum, wsum))
			panic(fmt.Sprintf("bench: %s at loss %g: checksum changed by cache: %x vs %x",
				mark, losses[i], zsum, wsum))
		}
		mo := MicroOpts{Prof: prof, Size: 8, Reps: 12, ForcePutCache: true, Fault: &fc}
		get := s.MicroLatency(OpGet, true, mo)
		put := s.MicroLatency(OpPut, true, mo)
		pts[i] = ChaosPoint{
			Loss:        losses[i],
			GetUs:       get.Mean(),
			PutUs:       put.Mean(),
			Improvement: stats.Improvement(z.Elapsed.Usecs(), w.Elapsed.Usecs()),
			Checksum:    wsum,
			Run:         w,
		}
	})
	return pts
}

// PrintChaos emits one degradation-curve table and returns its points.
func (s Sweep) PrintChaos(w io.Writer, mark string, prof *transport.Profile, sc Scale, losses []float64) []ChaosPoint {
	pts := s.ChaosSweep(mark, prof, sc, losses)
	fmt.Fprintf(w, "# Chaos — %s on %s, %s: cache behaviour vs loss rate (reliable delivery on)\n",
		mark, prof.Name, sc)
	fmt.Fprintf(w, "%8s %9s %9s %9s %10s %7s %8s %6s %6s %8s %17s\n",
		"loss", "hit-rate", "get(us)", "put(us)", "improv(%)",
		"drops", "corrupt", "dup", "retx", "dupsupp", "checksum")
	for _, pt := range pts {
		fl := pt.Run.Flight
		fmt.Fprintf(w, "%8.3f %9.2f %9.2f %9.2f %s %7d %8d %6d %6d %8d %17x\n",
			pt.Loss, pt.Run.Cache.HitRate(), pt.GetUs, pt.PutUs, fmtImprov(10, pt.Improvement),
			fl[flight.KindDrop], fl[flight.KindCorrupt], fl[flight.KindDuplicate],
			fl[flight.KindRetransmit], fl[flight.KindDupSuppress], pt.Checksum)
	}
	return pts
}

// RelRow is one transport's row of the reliability table: NACK traffic
// from a pin-starved workload plus the chaos counters of a lossy run.
type RelRow struct {
	Transport string
	Nack      core.RunStats // the pin-starved run: NACKs, cache entries dropped on NACK
	Chaos     core.RunStats // the lossy run
}

// ReliabilityTable measures the failure-handling machinery per
// transport: a limited-pinning rotation that forces RDMA NACKs and
// cache invalidations, and a pointer run at 2% loss exercising the
// reliable-delivery layer, with the sweep's flight rings when it has
// them.
func (s Sweep) ReliabilityTable() []RelRow {
	profs := []*transport.Profile{transport.GM(), transport.LAPI()}
	rows := make([]RelRow, len(profs))
	s.parfor(len(profs), func(i int) {
		prof := profs[i]
		nack := s.runNackChurn(prof)
		fc := ChaosFaults(0.02)
		chaos, _, _ := s.runChaosMark("pointer", Scale{Threads: 8, Nodes: 4}, prof,
			core.DefaultCache(), &fc)
		rows[i] = RelRow{Transport: prof.Name, Nack: nack, Chaos: chaos}
	})
	return rows
}

// runNackChurn rotates GETs across more arrays than the registration
// budget holds, so cached base addresses keep going stale and the
// NACK→invalidate→AM-fallback path fires continuously.
func (s Sweep) runNackChurn(prof *transport.Profile) core.RunStats {
	const threads, nodes, arrays, elems = 8, 4, 6, 64
	chunk := core.NewLayout(threads, threads/nodes, 8, elems/threads, elems).NodeChunkBytes()
	rt, err := core.NewRuntime(core.Config{
		Threads: threads, Nodes: nodes, Profile: prof, Cache: core.DefaultCache(), Seed: s.Seed,
		Pin: &core.PinConfig{Policy: mem.PinLimited, MaxTotal: int(chunk) + 1},
	})
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	st, err := rt.Run(func(t *core.Thread) {
		var as []*core.SharedArray
		for i := 0; i < arrays; i++ {
			a := t.AllAlloc(fmt.Sprintf("A%d", i), elems, 8, elems/threads)
			t.ForAll(a, func(j int64) { t.PutUint64(a.At(j), uint64(i*1000+int(j))) })
			as = append(as, a)
		}
		t.Barrier()
		for round := 0; round < 3; round++ {
			for _, a := range as {
				for j := int64(0); j < elems; j += 7 {
					t.GetUint64(a.At(j))
				}
			}
		}
		t.Barrier()
	})
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	return st
}

// PrintReliability emits the per-transport reliability table (the
// xlupc-report section behind the NACK and chaos counters).
func (s Sweep) PrintReliability(w io.Writer) []RelRow {
	rows := s.ReliabilityTable()
	fmt.Fprintf(w, "%10s %10s %12s %8s %9s %6s %6s %9s %7s\n",
		"transport", "nacks", "invalidated", "drops", "corrupt", "dup", "retx", "dupsupp", "acks")
	for _, r := range rows {
		fl := r.Chaos.Flight
		fmt.Fprintf(w, "%10s %10d %12d %8d %9d %6d %6d %9d %7d\n",
			r.Transport, r.Nack.RDMANacks, r.Nack.Cache.Invalidations,
			fl[flight.KindDrop], fl[flight.KindCorrupt], fl[flight.KindDuplicate],
			fl[flight.KindRetransmit], fl[flight.KindDupSuppress], fl[flight.KindAck])
	}
	return rows
}
