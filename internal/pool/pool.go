// Package pool holds the free-list type the simulator's hot paths
// recycle their per-operation records through: completions, message
// and RDMA descriptors, fabric packet records, reliable-layer packets
// and ACKs, protocol headers, bounce buffers. (Split-phase handles keep
// their own list: a handle's generation check is their poison.) Every
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

import "fmt"

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
// for bounce buffers whose size varies per operation. Buffers larger
// than the biggest class are allocated and dropped.
type Bytes struct {
	class [bytesClasses][][]byte
}

const (
	bytesMinShift = 3  // smallest class: 8 bytes
	bytesClasses  = 10 // largest class: 4 KiB
)

// classOf returns the size class that holds n bytes, or -1.
func classOf(n int) int {
	for c := 0; c < bytesClasses; c++ {
		if n <= 1<<(c+bytesMinShift) {
			return c
		}
	}
	return -1
}

// Get returns a buffer of length n, recycled when its class has one.
// Its contents are whatever the last user left: the caller overwrites
// all n bytes.
func (p *Bytes) Get(n int) []byte {
	c := classOf(n)
	if c < 0 {
		return make([]byte, n)
	}
	if l := len(p.class[c]); l > 0 {
		b := p.class[c][l-1]
		p.class[c] = p.class[c][:l-1]
		return b[:n]
	}
	return make([]byte, n, 1<<(c+bytesMinShift))
}

// Put recycles b, which must have come from Get. Under the poison build
// its bytes are overwritten with 0xdb and it is never reused.
func (p *Bytes) Put(b []byte) {
	if Poison {
		b = b[:cap(b)]
		for i := range b {
			b[i] = 0xdb
		}
		return
	}
	c := classOf(cap(b))
	if c < 0 || cap(b) != 1<<(c+bytesMinShift) {
		return // not one of ours: let it go
	}
	p.class[c] = append(p.class[c], b[:0])
}
