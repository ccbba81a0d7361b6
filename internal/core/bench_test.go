package core

import "testing"

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
