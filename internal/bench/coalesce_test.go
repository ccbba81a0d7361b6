package bench

import (
	"strings"
	"testing"

	"xlupc/internal/transport"
)

// The acceptance criterion for the split-phase work: batched small GETs
// (size ≤ 1 KB, batch ≥ 8) must beat the blocking loop's per-element
// latency on both GM and LAPI, on the eager and RDMA paths alike. The
// second input is every batch ≥ 8 of what `xlupc-micro -coalesce -reps 3
// -seed 7` prints.
func TestCoalesceBeatsBlockingSmallBatches(t *testing.T) {
	const reps = 3
	figSizes, allBatches := coalFigure()
	var figBatches []int
	for _, b := range allBatches {
		if b >= 8 {
			figBatches = append(figBatches, b)
		}
	}
	for _, in := range []struct {
		sizes, batches []int
		seed           int64
	}{
		{[]int{8, 1024}, []int{8, 16}, 1},
		{figSizes, figBatches, 7},
	} {
		for _, prof := range []*transport.Profile{transport.GM(), transport.LAPI()} {
			for _, pt := range (Sweep{Seed: in.seed}).CoalesceSweep(prof, in.sizes, in.batches, reps) {
				if pt.EagerCoalUs >= pt.EagerBlockUs {
					t.Errorf("%s seed=%d size=%d batch=%d: eager coalesced %.2fµs not below blocking %.2fµs",
						prof.Name, in.seed, pt.Size, pt.Batch, pt.EagerCoalUs, pt.EagerBlockUs)
				}
				if pt.RDMACoalUs >= pt.RDMABlockUs {
					t.Errorf("%s seed=%d size=%d batch=%d: rdma coalesced %.2fµs not below blocking %.2fµs",
						prof.Name, in.seed, pt.Size, pt.Batch, pt.RDMACoalUs, pt.RDMABlockUs)
				}
			}
		}
	}
}

// The figure is virtual-time only: two renders with the same seed must
// be byte-identical regardless of host scheduling.
func TestPrintCoalesceDeterministic(t *testing.T) {
	render := func() string {
		var sb strings.Builder
		Sweep{Seed: 1}.PrintCoalesce(&sb, 2)
		return sb.String()
	}
	a, b := render(), render()
	if a != b {
		t.Fatal("coalesce figure differs between identical runs")
	}
	if !strings.Contains(a, "gm") || !strings.Contains(a, "lapi") {
		t.Fatal("figure missing a transport table")
	}
}

func TestValidateScale(t *testing.T) {
	for _, c := range []struct {
		threads, nodes int
		ok             bool
	}{
		{16, 4, true}, {4, 4, true}, {1, 1, true},
		{5, 2, false}, {0, 1, false}, {4, 0, false}, {-8, 4, false}, {4, 8, false},
	} {
		err := ValidateScale(c.threads, c.nodes)
		if (err == nil) != c.ok {
			t.Errorf("ValidateScale(%d, %d) = %v, want ok=%v", c.threads, c.nodes, err, c.ok)
		}
	}
}
