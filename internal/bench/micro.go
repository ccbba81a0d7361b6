// Package bench regenerates every figure of the paper's evaluation
// (§4): the GET/PUT latency microbenchmarks (Figures 6 and 7), the
// cache-size/hit-rate study (Figure 8), the DIS stressmark sweeps
// (Figure 9), and the miss-overhead and pinned-table-size claims of
// §4.5/§6. Each figure has a driver returning structured points plus a
// printer emitting the same rows/series the paper plots.
package bench

import (
	"fmt"

	"xlupc/internal/core"
	"xlupc/internal/fault"
	"xlupc/internal/sim"
	"xlupc/internal/stats"
	"xlupc/internal/transport"
)

// Op selects the microbenchmark operation.
type Op int

const (
	OpGet Op = iota
	OpPut
)

func (o Op) String() string {
	if o == OpPut {
		return "put"
	}
	return "get"
}

// microWarm is the number of warmup operations of a latency
// microbenchmark (populate cache, pin memory).
const microWarm = 3

// MicroOpts configures a latency microbenchmark.
type MicroOpts struct {
	Prof *transport.Profile
	Size int // transfer size in bytes
	Reps int // measured repetitions (after warmup)
	// ForcePutCache enables PUT caching regardless of the profile —
	// how the paper obtained the (negative) LAPI PUT curve before
	// deciding to disable it.
	ForcePutCache bool
	// Fault, when non-nil, runs the microbenchmark over a faulty wire
	// with reliable delivery (degradation curves).
	Fault *fault.Config
}

// MicroLatency measures the mean per-operation latency (microseconds)
// of op between two nodes, with the address cache enabled or not. The
// microbenchmark mirrors the paper's: one active thread per node, the
// initiator on node 0 operating on node 1's half of a shared array
// (GET is a blocking roundtrip; PUT is timed to local completion, the
// initiator-blocking overhead).
func (s Sweep) MicroLatency(op Op, cached bool, o MicroOpts) stats.Sample {
	cc := core.NoCache()
	if cached {
		cc = core.DefaultCache()
		if o.ForcePutCache {
			cc.PutMode = core.PutCacheOn
		}
	}
	rt, err := core.NewRuntime(core.Config{
		Threads: 2, Nodes: 2, Profile: o.Prof, Cache: cc, Seed: s.Seed,
		Fault: o.Fault,
	})
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	var lat stats.Sample
	_, err = rt.Run(func(t *core.Thread) {
		elems := int64(o.Size) * 2
		a := t.AllAlloc("micro", elems, 1, int64(o.Size)) // [0,Size) on t0/n0, [Size,2Size) on t1/n1
		t.Barrier()
		if t.ID() == 0 {
			buf := make([]byte, o.Size)
			target := a.At(int64(o.Size)) // node 1's block
			for i := 0; i < microWarm; i++ {
				runOp(t, op, target, buf)
				t.Fence()
			}
			for i := 0; i < o.Reps; i++ {
				t0 := t.Now()
				runOp(t, op, target, buf)
				lat.Add((t.Now() - t0).Usecs())
				// Let asynchronous completions drain between
				// repetitions, as a loop with per-iteration result
				// checks would.
				t.Sleep(2 * sim.Us)
			}
			t.Fence()
		}
		t.Barrier()
	})
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	return lat
}

func runOp(t *core.Thread, op Op, target core.Ref, buf []byte) {
	if op == OpGet {
		t.GetBulk(buf, target)
	} else {
		t.PutBulk(target, buf)
	}
}
