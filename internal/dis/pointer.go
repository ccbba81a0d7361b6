package dis

import (
	"encoding/binary"

	"xlupc/internal/core"
)

// byteOrder matches the runtime's shared-array element encoding.
var byteOrder = binary.LittleEndian

// successors is the initialisation Pointer and Update share: the
// thread writes A[i] = h(i ^ key) mod n into every element with
// affinity to it (upc_forall), enters the barrier, and runs then.
type successors struct {
	*mark
	key  uint64
	i    int64 // the next owned index
	then func()
	put  func() // bound step
}

func (f *successors) start(m *mark, key uint64, then func()) {
	f.mark, f.key, f.then, f.put = m, key, then, f.step
	f.i = m.a.Layout().NextOwned(m.t.ID(), 0)
	f.step()
}

func (f *successors) step() {
	l := f.a.Layout()
	if f.i >= l.NumElems {
		f.t.BarrierC(f.then)
		return
	}
	i := f.i
	f.i = l.NextOwned(f.t.ID(), i+1)
	f.t.PutUint64C(f.a.At(i), f.p.hash(uint64(i)^f.key)%uint64(l.NumElems), f.put)
}

// Pointer is the Pointer Stressmark: each UPC thread repeatedly
// follows pointers (hops) to randomized locations in a shared array,
// starting from a thread-specific position. Hops land uniformly across
// the whole array, so across nodes — the paper's example of the rare
// application class whose address-cache working set grows with the
// machine (§4.5, Figure 8a).
//
//	upc_forall (i; &A[i]) A[i] = h(i) % n;  upc_barrier
//	pos = h(MYTHREAD)
//	for (hop = 0; hop < pointerHops; hop++) {
//		next = A[pos];  compute(hopCompute)
//		check ^= next + hop;  pos = next
//	}
//	upc_barrier
func Pointer(t *core.Thread, p Params, done func(uint64)) { startPointer(t, p, done) }

// startPointer is Pointer returning the thread's state, through which a
// test reads the array back when done is called.
func startPointer(t *core.Thread, p Params, done func(uint64)) *pointer {
	m := &pointer{}
	m.init(t, p, done)
	m.do.allocated, m.do.chase, m.do.got, m.do.hopped = m.allocated, m.chase, m.got, m.hopped
	// Blocked distribution: one contiguous block per thread.
	t.AllAllocC("pointer", int64(t.Threads())*pointerPerThread, 8, pointerPerThread, m.do.allocated)
	return m
}

type pointer struct {
	mark
	fill successors
	pos  int64
	hop  int
	next uint64
	do   struct {
		allocated     func(*core.SharedArray)
		got           func(uint64)
		chase, hopped func()
	}
}

func (m *pointer) allocated(a *core.SharedArray) {
	m.a = a
	m.fill.start(&m.mark, 0xF00D, m.do.chase)
}

func (m *pointer) chase() {
	m.pos = int64(m.p.hash(uint64(m.t.ID())^0xBEEF) % uint64(m.a.Layout().NumElems))
	m.t.GetUint64C(m.a.At(m.pos), m.do.got)
}

func (m *pointer) got(next uint64) {
	m.next = next
	m.t.ComputeC(hopCompute, m.do.hopped)
}

func (m *pointer) hopped() {
	m.sum ^= m.next + uint64(m.hop)
	m.pos = int64(m.next)
	m.hop++
	if m.hop == pointerHops {
		m.t.BarrierC(m.finish)
		return
	}
	m.t.GetUint64C(m.a.At(m.pos), m.do.got)
}

// Update is the Update Stressmark: a pointer-hopping benchmark where
// each hop reads several remote locations and updates one, all
// performed by UPC thread 0 while the other threads idle in a barrier —
// designed to measure the overhead of remote accesses to multiple
// threads' memory.
//
//	upc_forall (i; &A[i]) A[i] = h(i) % n;  upc_barrier
//	if (MYTHREAD == 0) {
//		pos = h(seed)
//		for (hop = 0; hop < hops; hop++) {
//			for (r = 0; r < updateReads; r++) {
//				v = A[(pos + 97r) % n];  check ^= v + r
//				if (r == 0) next = v
//			}
//			compute(updateHopCompute)
//			A[pos] = next;  pos = next
//		}
//		upc_fence
//	}
//	upc_barrier
func Update(t *core.Thread, p Params, done func(uint64)) { startUpdate(t, p, done) }

// startUpdate is Update returning the thread's state (see startPointer).
func startUpdate(t *core.Thread, p Params, done func(uint64)) *update {
	m := &update{}
	m.init(t, p, done)
	m.do.allocated, m.do.walk, m.do.got, m.do.computed, m.do.wrote, m.do.fenced =
		m.allocated, m.walk, m.got, m.computed, m.wrote, m.fenced
	t.AllAllocC("update", int64(t.Threads())*updatePerThread, 8, updatePerThread, m.do.allocated)
	return m
}

type update struct {
	mark
	fill         successors
	n, pos       int64
	hops, hop, r int
	next         uint64
	do           struct {
		allocated                     func(*core.SharedArray)
		got                           func(uint64)
		walk, computed, wrote, fenced func()
	}
}

func (m *update) allocated(a *core.SharedArray) {
	m.a, m.n = a, a.Layout().NumElems
	m.fill.start(&m.mark, 0xCAFE, m.do.walk)
}

func (m *update) walk() {
	if m.t.ID() != 0 {
		m.t.BarrierC(m.finish)
		return
	}
	m.pos = int64(m.p.hash(0x5EED) % uint64(m.n))
	m.hops = updateHopsBase + updateHopsPerThread*m.t.Threads()
	m.step()
}

// step starts hop m.hop, or ends the walk.
func (m *update) step() {
	if m.hop == m.hops {
		m.t.FenceC(m.do.fenced)
		return
	}
	m.r = 0
	m.read()
}

// read reads the hop's location r.
func (m *update) read() { m.t.GetUint64C(m.a.At((m.pos+int64(m.r)*97)%m.n), m.do.got) }

func (m *update) got(v uint64) {
	if m.r == 0 {
		m.next = v
	}
	m.sum ^= v + uint64(m.r)
	m.r++
	if m.r < updateReads {
		m.read()
		return
	}
	m.t.ComputeC(updateHopCompute, m.do.computed)
}

// computed updates one location, preserving the successor structure so
// reruns (and cache-on/off runs) traverse identically.
func (m *update) computed() { m.t.PutUint64C(m.a.At(m.pos), m.next, m.do.wrote) }

func (m *update) wrote() {
	m.pos = int64(m.next)
	m.hop++
	m.step()
}

func (m *update) fenced() { m.t.BarrierC(m.finish) }
