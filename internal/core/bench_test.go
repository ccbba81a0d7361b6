package core

import (
	"testing"

	"xlupc/internal/transport"
)

// Wall-clock cost of simulated operations: how many virtual GETs/PUTs
// the simulator executes per real second. These bound the size of the
// sweeps in cmd/xlupc-*.

func benchRuntime(b *testing.B, cc CacheConfig) (*Runtime, *SharedArray) {
	b.Helper()
	rt, err := NewRuntime(Config{
		Threads: 4, Nodes: 2, Profile: transport.GM(), Cache: cc, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return rt, nil
}

func BenchmarkSimulatedRemoteGet(b *testing.B) {
	for _, cc := range []struct {
		name string
		cfg  CacheConfig
	}{{"uncached", NoCache()}, {"cached", DefaultCache()}} {
		cc := cc
		b.Run(cc.name, func(b *testing.B) {
			rt, _ := benchRuntime(b, cc.cfg)
			b.ResetTimer()
			_, err := rt.Run(func(t *Thread) {
				a := t.AllAlloc("A", 64, 8, 16)
				t.Barrier()
				if t.ID() == 0 {
					for i := 0; i < b.N; i++ {
						t.GetUint64(a.At(40)) // element on node 1
					}
				}
				t.Barrier()
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

func BenchmarkSimulatedRemotePut(b *testing.B) {
	rt, _ := benchRuntime(b, DefaultCache())
	b.ResetTimer()
	_, err := rt.Run(func(t *Thread) {
		a := t.AllAlloc("A", 64, 8, 16)
		t.Barrier()
		if t.ID() == 0 {
			for i := 0; i < b.N; i++ {
				t.PutUint64(a.At(40), uint64(i))
				if i%64 == 63 {
					t.Fence() // bound outstanding-op memory
				}
			}
			t.Fence()
		}
		t.Barrier()
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkSimulatedBarrier(b *testing.B) {
	rt, _ := benchRuntime(b, NoCache())
	b.ResetTimer()
	_, err := rt.Run(func(t *Thread) {
		for i := 0; i < b.N; i++ {
			t.Barrier()
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkLayoutChunkOffset times locating an element at Pointer's
// 512-thread shape: the two calls a GET or PUT used to make, and the
// one Locate it makes now.
func BenchmarkLayoutChunkOffset(b *testing.B) {
	l := NewLayout(512, 4, 8, 16, 1<<20)
	var sink int64
	b.Run("NodeOf+ChunkOffset", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			idx := int64(i) % (1 << 20)
			sink += int64(l.NodeOf(idx)) + l.ChunkOffset(idx)
		}
	})
	b.Run("Locate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n, off := l.Locate(int64(i) % (1 << 20))
			sink += int64(n) + off
		}
	})
	_ = sink
}
