package bench

import (
	"fmt"
	"io"

	"xlupc/internal/core"
	"xlupc/internal/sim"
	"xlupc/internal/stats"
	"xlupc/internal/transport"
)

// CoalescePoint is one cell of the batch-size figure: mean
// per-element latency (µs) of a batch of small GETs, blocking loop
// versus split-phase issue with message coalescing, on the eager
// (cache-off) and RDMA (cache-on, warmed) paths.
type CoalescePoint struct {
	Size  int // bytes per GET
	Batch int // GETs issued back to back

	EagerBlockUs float64 // blocking loop, AM path
	EagerCoalUs  float64 // NbGet×batch + SyncAll, coalesced AMs
	RDMABlockUs  float64 // blocking loop, cached RDMA path
	RDMACoalUs   float64 // split-phase, doorbell-batched descriptors

	EagerImprov float64 // percent, blocking vs coalesced
	RDMAImprov  float64
}

// coalLatency measures mean per-element latency of `batch` GETs of
// `size` bytes from node 0 against node 1's block: a blocking GetBulk
// loop, or NbGet issue + one SyncAll with coalescing enabled.
func (s Sweep) coalLatency(prof *transport.Profile, size, batch, reps int, split, cached bool) stats.Sample {
	cc := core.NoCache()
	if cached {
		cc = core.DefaultCache()
	}
	cfg := core.Config{Threads: 2, Nodes: 2, Profile: prof, Cache: cc, Seed: s.Seed}
	if split {
		coal := transport.DefaultCoalConfig()
		cfg.Coalesce = &coal
	}
	rt, err := core.NewRuntime(cfg)
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	var lat stats.Sample
	_, err = rt.Run(func(t *core.Thread) {
		chunk := int64(size * batch)
		a := t.AllAlloc("coal", 2*chunk, 1, chunk) // node 1 owns [chunk, 2chunk)
		t.Barrier()
		if t.ID() == 0 {
			bufs := make([][]byte, batch)
			for j := range bufs {
				bufs[j] = make([]byte, size)
			}
			// Warm: populate the address cache (and pin the target chunk)
			// through the blocking path, as a running application would
			// have.
			for w := 0; w < 3; w++ {
				for j := 0; j < batch; j++ {
					t.GetBulk(bufs[j], a.At(chunk+int64(j*size)))
				}
				t.Fence()
			}
			for i := 0; i < reps; i++ {
				t0 := t.Now()
				if split {
					for j := 0; j < batch; j++ {
						t.NbGet(bufs[j], a.At(chunk+int64(j*size)))
					}
					t.SyncAll()
				} else {
					for j := 0; j < batch; j++ {
						t.GetBulk(bufs[j], a.At(chunk+int64(j*size)))
					}
				}
				lat.Add((t.Now() - t0).Usecs() / float64(batch))
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

// CoalesceSweep produces the batch-size figure for one transport:
// every (size, batch) combination, eager and RDMA paths, blocking
// versus coalesced split-phase.
func (s Sweep) CoalesceSweep(prof *transport.Profile, sizes, batches []int, reps int) []CoalescePoint {
	pts := make([]CoalescePoint, len(sizes)*len(batches))
	s.parfor(len(pts), func(i int) {
		size := sizes[i/len(batches)]
		batch := batches[i%len(batches)]
		pt := CoalescePoint{Size: size, Batch: batch}
		eb := s.coalLatency(prof, size, batch, reps, false, false)
		ec := s.coalLatency(prof, size, batch, reps, true, false)
		rb := s.coalLatency(prof, size, batch, reps, false, true)
		rc := s.coalLatency(prof, size, batch, reps, true, true)
		pt.EagerBlockUs = eb.Mean()
		pt.EagerCoalUs = ec.Mean()
		pt.RDMABlockUs = rb.Mean()
		pt.RDMACoalUs = rc.Mean()
		pt.EagerImprov = stats.Improvement(pt.EagerBlockUs, pt.EagerCoalUs)
		pt.RDMAImprov = stats.Improvement(pt.RDMABlockUs, pt.RDMACoalUs)
		pts[i] = pt
	})
	return pts
}

// coalFigure returns the element and batch sizes the coalescing figure
// sweeps.
func coalFigure() (sizes, batches []int) {
	return []int{8, 64, 1024}, []int{1, 2, 4, 8, 16, 32}
}

// PrintCoalesce renders the batched-vs-unbatched figure for GM and
// LAPI: per-element latency and throughput of small GETs against batch
// size, blocking loop versus split-phase with coalescing.
func (s Sweep) PrintCoalesce(w io.Writer, reps int) {
	sizes, batches := coalFigure()
	for _, prof := range []*transport.Profile{transport.GM(), transport.LAPI()} {
		fmt.Fprintf(w, "Split-phase GET coalescing — %s (per-element latency, µs)\n", prof.Name)
		fmt.Fprintf(w, "%6s %6s %12s %12s %9s %12s %12s %9s %10s\n",
			"size", "batch", "eager-block", "eager-coal", "impr%",
			"rdma-block", "rdma-coal", "impr%", "coal MB/s")
		for _, pt := range s.CoalesceSweep(prof, sizes, batches, reps) {
			mbps := 0.0
			if pt.RDMACoalUs > 0 {
				mbps = float64(pt.Size) / pt.RDMACoalUs // bytes/µs = MB/s
			}
			fmt.Fprintf(w, "%6d %6d %12.2f %12.2f %s %12.2f %12.2f %s %10.1f\n",
				pt.Size, pt.Batch,
				pt.EagerBlockUs, pt.EagerCoalUs, fmtImprov(9, pt.EagerImprov),
				pt.RDMABlockUs, pt.RDMACoalUs, fmtImprov(9, pt.RDMAImprov),
				mbps)
		}
		fmt.Fprintln(w)
	}
}
