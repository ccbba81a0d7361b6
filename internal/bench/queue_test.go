package bench

import (
	"testing"

	"xlupc/internal/core"
	"xlupc/internal/transport"
)

// TestQueueTrafficRecurs checks the premise the kernel's lane queue is
// built on, on real runs: almost every event is scheduled with a delay
// that recurs (a profile constant) or with none at all, so it is filed
// in an O(1) FIFO; only jitter and timers with computed deadlines fall
// through to the heap.
func TestQueueTrafficRecurs(t *testing.T) {
	sc := Scale{Threads: 64, Nodes: 16}
	lossy := ChaosFaults(0.02)
	runs := []struct {
		name string
		min  float64 // share of pushes that must land in a lane or the now-FIFO
		run  func() *core.Runtime
	}{
		{"pointer chase", 0.95, func() *core.Runtime {
			_, _, rt := Sweep{Seed: 3}.runChaosMark("pointer", sc, transport.GM(), core.DefaultCache(), nil)
			return rt
		}},
		{"kv", 0.95, func() *core.Runtime {
			_, rt := Sweep{Seed: 3}.runKV(KVOpts{Scale: sc, Prof: transport.GM(), Ops: 100, Keys: 4096,
				Theta: 0.9, ReadFrac: 0.5, Cached: true})
			return rt
		}},
		{"lossy reliable pointer chase", 0.80, func() *core.Runtime {
			_, _, rt := Sweep{Seed: 3}.runChaosMark("pointer", sc, transport.GM(), core.DefaultCache(), &lossy)
			return rt
		}},
	}
	for _, r := range runs {
		st := r.run().K.QueueStats()
		total := st.LanePushes + st.NowPushes + st.OverflowPushes
		share := float64(st.LanePushes+st.NowPushes) / float64(total)
		t.Logf("%s: %d pushes, %.1f%% in lanes/now, %d lanes, %d pending at most",
			r.name, total, 100*share, st.Lanes, st.MaxPending)
		if total == 0 || share < r.min {
			t.Errorf("%s: %.1f%% of %d pushes in lanes/now, want at least %.0f%%: %+v",
				r.name, 100*share, total, 100*r.min, st)
		}
	}
}
