// Package pool holds the free-list type the simulator's hot paths
// recycle their per-operation records through: completions, message
// and RDMA descriptors, fabric packet records, reliable-layer packets
// and ACKs, protocol headers, bounce buffers. (Split-phase descriptors
// keep their own list on each thread, which SyncAll puts them back on
// once it has retired them.) Every
// record type has one owner rule — a single site that puts it back
// once its last reader is done — and the rule is written next to the
// Put.
//
// Built with the xlupcpoison tag, a Free never hands a record out
// twice: Put zeroes it and marks it dead, and Live panics on a dead
// record. A use after recycle then reads a zeroed record or trips a
// Live check instead of silently aliasing a newer operation's state,
// which is what the goldens run under in CI.
package pool

import (
	"fmt"
	"math/bits"
)

// Free is a LIFO free list of *T records. The zero value is ready to
// use. The simulation kernel serializes every access, so it takes no
// lock.
type Free[T any] struct {
	free []*T
	dead map[*T]struct{} // poison build only: every record put back
}

// Get returns a recycled record, or a new zero one. A recycled record
// holds whatever its last Put left in it: the caller sets every field
// the record's owner reads (records keep pre-bound funcs across uses).
func (p *Free[T]) Get() *T {
	if n := len(p.free); n > 0 {
		x := p.free[n-1]
		p.free = p.free[:n-1]
		return x
	}
	return new(T)
}

// Put recycles x. The caller has cleared the references it must not
// keep alive; under the poison build x is zeroed and retired for good
// instead.
func (p *Free[T]) Put(x *T) {
	if Poison {
		p.retire(x)
		return
	}
	p.free = append(p.free, x)
}

// Live panics, under the poison build, if x was put back: what names
// it is a reader the owner rule says cannot exist. Otherwise it is
// free.
func (p *Free[T]) Live(x *T) {
	if !Poison {
		return
	}
	if _, dead := p.dead[x]; dead {
		panic(fmt.Sprintf("pool: %T used after it was recycled", x))
	}
}

func (p *Free[T]) retire(x *T) {
	if _, dead := p.dead[x]; dead {
		panic(fmt.Sprintf("pool: %T recycled twice", x))
	}
	var zero T
	*x = zero
	if p.dead == nil {
		p.dead = make(map[*T]struct{})
	}
	p.dead[x] = struct{}{}
}

// Bytes is a free list of byte buffers in power-of-two size classes,
// for bounce buffers whose size varies per operation. The classes reach
// 4 MiB, the largest transfer the figure sweeps make, so a bulk RDMA or
// rendezvous PUT recycles its bounce buffer too. Buffers larger than
// that are allocated and dropped.
type Bytes struct {
	class [bytesClasses][][]byte
}

const (
	bytesMinShift = 3  // smallest class: 8 bytes
	bytesClasses  = 20 // largest class: 4 MiB
)

// classOf returns the size class that holds n bytes: bytesClasses or
// more when none does.
func classOf(n int) int {
	return max(bits.Len(uint(n-1)), bytesMinShift) - bytesMinShift
}

// Get returns a buffer of length n, recycled when its class has one.
// Its contents are whatever the last user left: the caller overwrites
// all n bytes.
func (p *Bytes) Get(n int) []byte {
	c, size := classOf(n), n
	if c < bytesClasses {
		if l := len(p.class[c]); l > 0 {
			b := p.class[c][l-1]
			p.class[c] = p.class[c][:l-1]
			return b[:n]
		}
		size = 1 << (c + bytesMinShift)
	}
	return make([]byte, n, size)
}

// Put recycles b, which must have come from Get; a buffer of no class
// (larger than the largest, or not one of ours) is let go. Under the
// poison build its bytes are overwritten with 0xdb and it is never
// reused.
func (p *Bytes) Put(b []byte) {
	if Poison {
		b = b[:cap(b)]
		for i := range b {
			b[i] = 0xdb
		}
		return
	}
	if c := classOf(cap(b)); c < bytesClasses && cap(b) == 1<<(c+bytesMinShift) {
		p.class[c] = append(p.class[c], b[:0])
	}
}
