package core

import (
	"fmt"
	"math/rand"

	"xlupc/internal/sim"
)

// A generated UPC program and the sequential model that predicts it
// (TestPropertyRandomProgramMatchesReference).
//
// Shape: two shared arrays of 8-byte elements — data (written with
// PUTs, read with GETs) and ctr (updated with atomics) — and a number
// of epochs, each a write phase and a read phase closed by barriers.
// In a write phase every element has at most one writer, chosen up
// front, and is written at most once; the fetch-adds on a counter come
// from one thread, except the last counter, which every thread adds to,
// and whose previous values are not checked. A thread reads its own writes back only after a fence.
// Read phases read anything: nothing is written in them. Midway the
// data array is freed and allocated afresh. So the order threads run in
// cannot change any checked value, and a model that executes the
// threads one after the other predicts all of them.
//
// A program without split-phase operations uses only what both API
// styles offer, so it runs under Run and under RunCont.

const (
	progThreads, progNodes = 8, 4
	progEpochs             = 4
	progDataElems          = 96 // block 4: a 10-element run spans up to 4 threads
	progDataBlock          = 4
	progCtrElems           = 24
	progCtrBlock           = 3
	progMaxRun             = 10
)

type stepKind int

const (
	stPut stepKind = iota
	stPutBulk
	stGet
	stGetBulk
	stNbGet
	stSyncAll
	stFence
	stBarrier
	stFetchAdd
	stFreeRealloc // collective: thread 0 frees data, everyone allocates it afresh
)

var stepNames = [...]string{"Put", "PutBulk", "Get", "GetBulk", "NbGet", "SyncAll",
	"Fence", "Barrier", "FetchAdd", "Free+AllAlloc"}

func (k stepKind) String() string { return stepNames[k] }

// progStep is one operation of one thread's script, with the result
// the model expects of it.
type progStep struct {
	kind      stepKind
	arr       int      // 0 = data, 1 = ctr
	idx       int64    // first element
	vals      []uint64 // values to write (PUT kinds) or expected (GET kinds)
	a1        uint64   // atomic operand: the delta
	want      uint64   // expected previous value of a fetch-add
	unordered bool     // the previous value depends on thread order: not checked
}

type program struct {
	steps [progThreads][]progStep
}

func progValue(epoch int, idx int64) uint64 {
	return uint64(epoch+1)*1_000_000 + uint64(idx)
}

// genProgram builds the scripts for seed, executing the model as it
// goes. Without split, it emits no split-phase operation.
func genProgram(seed int64, split bool) *program {
	rng := rand.New(rand.NewSource(seed))
	pr := &program{}
	model := [2][]uint64{make([]uint64, progDataElems), make([]uint64, progCtrElems)}
	emit := func(th int, s progStep) { pr.steps[th] = append(pr.steps[th], s) }
	all := func(k stepKind) {
		for th := 0; th < progThreads; th++ {
			emit(th, progStep{kind: k})
		}
	}
	snapshot := func(arr int, idx int64, n int) []uint64 {
		return append([]uint64(nil), model[arr][idx:idx+int64(n)]...)
	}
	// read emits one GET of n elements at idx in a random style.
	read := func(th, arr int, idx int64, n int) {
		want := snapshot(arr, idx, n)
		switch style := rng.Intn(3); {
		case style == 0 && n == 1:
			emit(th, progStep{kind: stGet, arr: arr, idx: idx, vals: want})
		case style == 2 && split:
			emit(th, progStep{kind: stNbGet, arr: arr, idx: idx, vals: want})
			if rng.Intn(2) == 0 {
				emit(th, progStep{kind: stSyncAll})
			}
		default:
			emit(th, progStep{kind: stGetBulk, arr: arr, idx: idx, vals: want})
		}
	}

	type seg struct {
		idx int64
		n   int
	}
	for e := 0; e < progEpochs; e++ {
		// Write phase. Hand out the data array in runs, and the counters
		// one by one, each to one thread or to nobody.
		var segs [progThreads][]seg
		for i := int64(0); i < progDataElems; {
			n := 1 + rng.Intn(progMaxRun)
			if i+int64(n) > progDataElems {
				n = int(progDataElems - i)
			}
			if w := rng.Intn(progThreads+2) - 2; w >= 0 {
				segs[w] = append(segs[w], seg{i, n})
			}
			i += int64(n)
		}
		var ctrs [progThreads][]int64
		for c := int64(0); c < progCtrElems-1; c++ {
			if w := rng.Intn(progThreads+2) - 2; w >= 0 {
				ctrs[w] = append(ctrs[w], c)
			}
		}
		for th := 0; th < progThreads; th++ {
			type task struct {
				s   seg
				ctr int64 // >= 0: an atomic task on this counter
			}
			var tasks []task
			for _, s := range segs[th] {
				tasks = append(tasks, task{s: s, ctr: -1})
			}
			for _, c := range ctrs[th] {
				tasks = append(tasks, task{ctr: c})
			}
			tasks = append(tasks, task{ctr: progCtrElems - 1})
			rng.Shuffle(len(tasks), func(i, j int) { tasks[i], tasks[j] = tasks[j], tasks[i] })
			for _, tk := range tasks {
				if tk.ctr < 0 {
					vals := make([]uint64, tk.s.n)
					for k := range vals {
						vals[k] = progValue(e, tk.s.idx+int64(k))
						model[0][tk.s.idx+int64(k)] = vals[k]
					}
					if rng.Intn(2) == 0 {
						for k, v := range vals {
							emit(th, progStep{kind: stPut, idx: tk.s.idx + int64(k), vals: []uint64{v}})
						}
					} else {
						emit(th, progStep{kind: stPutBulk, idx: tk.s.idx, vals: vals})
					}
					continue
				}
				c := tk.ctr
				cur := &model[1][c]
				shared := c == progCtrElems-1
				for k := 1 + rng.Intn(3); k > 0; k-- {
					d := uint64(1 + rng.Intn(1000))
					emit(th, progStep{kind: stFetchAdd, arr: 1, idx: c, a1: d, want: *cur, unordered: shared})
					*cur += d
				}
			}
			// Read some of it back: own writes are ordered by a fence.
			if len(segs[th]) > 0 && rng.Intn(2) == 0 {
				emit(th, progStep{kind: stFence})
				s := segs[th][rng.Intn(len(segs[th]))]
				read(th, 0, s.idx, s.n)
			}
			if split && rng.Intn(4) == 0 {
				emit(th, progStep{kind: stSyncAll})
			}
		}
		all(stBarrier)

		// Read phase.
		for th := 0; th < progThreads; th++ {
			for k := 2 + rng.Intn(4); k > 0; k-- {
				arr, elems := 0, int64(progDataElems)
				if rng.Intn(4) == 0 {
					arr, elems = 1, progCtrElems
				}
				idx := rng.Int63n(elems)
				n := 1 + rng.Intn(progMaxRun)
				if idx+int64(n) > elems {
					n = int(elems - idx)
				}
				read(th, arr, idx, n)
			}
			if split && rng.Intn(2) == 0 {
				emit(th, progStep{kind: stSyncAll})
			}
		}
		all(stBarrier)

		if e == progEpochs/2-1 {
			all(stFreeRealloc)
			clear(model[0])
		}
	}
	// Final memory, read by thread 0 after the last barrier.
	emit(0, progStep{kind: stGetBulk, arr: 0, idx: 0, vals: snapshot(0, 0, progDataElems)})
	emit(0, progStep{kind: stGetBulk, arr: 1, idx: 0, vals: snapshot(1, 0, progCtrElems)})
	return pr
}

// progThread is the interpreter state of one thread, shared by both
// interpreters: the arrays, and the split-phase GETs still to be
// checked once they have retired.
type progThread struct {
	th      *Thread
	pr      *program
	fail    func(thread, step int, msg string)
	arr     [2]*SharedArray
	pending []progPending
}

type progPending struct {
	step int
	buf  []byte // NbGet destination
}

func (pt *progThread) encode(vals []uint64) []byte {
	b := make([]byte, 8*len(vals))
	for i, v := range vals {
		byteOrder.PutUint64(b[8*i:], v)
	}
	return b
}

func (pt *progThread) checkBytes(step int, got []byte) {
	want := pt.pr.steps[pt.th.ID()][step].vals
	for i, w := range want {
		if g := byteOrder.Uint64(got[8*i:]); g != w {
			pt.fail(pt.th.ID(), step, fmt.Sprintf("element %d = %d, model says %d",
				pt.pr.steps[pt.th.ID()][step].idx+int64(i), g, w))
			return
		}
	}
}

func (pt *progThread) checkOld(step int, got uint64) {
	s := &pt.pr.steps[pt.th.ID()][step]
	if want := s.want; !s.unordered && got != want {
		pt.fail(pt.th.ID(), step, fmt.Sprintf("previous value %d, model says %d", got, want))
	}
}

// retired checks the split-phase GETs a SyncAll, fence or barrier has
// just retired: all of them.
func (pt *progThread) retired() {
	for _, p := range pt.pending {
		pt.checkBytes(p.step, p.buf)
	}
	pt.pending = pt.pending[:0]
}

func (pt *progThread) ref(s *progStep) Ref { return pt.arr[s.arr].At(s.idx) }

func newProgThread(th *Thread, pr *program, fail func(thread, step int, msg string)) *progThread {
	return &progThread{th: th, pr: pr, fail: fail}
}

// runBlocking interprets the thread's script against the blocking API.
func (pr *program) runBlocking(th *Thread, fail func(thread, step int, msg string)) {
	pt := newProgThread(th, pr, fail)
	pt.arr[0] = th.AllAlloc("data", progDataElems, 8, progDataBlock)
	pt.arr[1] = th.AllAlloc("ctr", progCtrElems, 8, progCtrBlock)
	steps := pr.steps[th.ID()]
	for i := range steps {
		s := &steps[i]
		switch s.kind {
		case stPut:
			th.PutUint64(pt.ref(s), s.vals[0])
		case stPutBulk:
			th.PutBulk(pt.ref(s), pt.encode(s.vals))
		case stGet:
			var b [8]byte
			byteOrder.PutUint64(b[:], th.GetUint64(pt.ref(s)))
			pt.checkBytes(i, b[:])
		case stGetBulk:
			buf := make([]byte, 8*len(s.vals))
			th.GetBulk(buf, pt.ref(s))
			pt.checkBytes(i, buf)
		case stNbGet:
			buf := make([]byte, 8*len(s.vals))
			th.NbGet(buf, pt.ref(s))
			pt.pending = append(pt.pending, progPending{step: i, buf: buf})
		case stSyncAll:
			th.SyncAll()
			pt.retired()
		case stFence:
			th.Fence()
			pt.retired()
		case stBarrier:
			th.Barrier()
			pt.retired()
		case stFetchAdd:
			pt.checkOld(i, th.FetchAdd(pt.ref(s), s.a1))
		case stFreeRealloc:
			if th.ID() == 0 {
				th.Free(pt.arr[0])
			}
			pt.arr[0] = th.AllAlloc("data", progDataElems, 8, progDataBlock)
		}
	}
}

// runCont interprets the thread's script, which has no split-phase
// operation, against the continuation API.
func (pr *program) runCont(th *Thread, fail func(thread, step int, msg string), done func()) {
	pt := newProgThread(th, pr, fail)
	steps := pr.steps[th.ID()]
	i := -1
	run := func() {
		sim.Loop(func(next func()) {
			i++
			if i == len(steps) {
				done()
				return
			}
			i := i
			s := &steps[i]
			switch s.kind {
			case stPut:
				th.PutUint64C(pt.ref(s), s.vals[0], next)
			case stPutBulk:
				th.PutBulkC(pt.ref(s), pt.encode(s.vals), next)
			case stGet:
				th.GetUint64C(pt.ref(s), func(v uint64) {
					var b [8]byte
					byteOrder.PutUint64(b[:], v)
					pt.checkBytes(i, b[:])
					next()
				})
			case stGetBulk:
				buf := make([]byte, 8*len(s.vals))
				th.GetBulkC(buf, pt.ref(s), func() {
					pt.checkBytes(i, buf)
					next()
				})
			case stFence, stBarrier:
				op := th.FenceC
				if s.kind == stBarrier {
					op = th.BarrierC
				}
				op(next)
			case stFetchAdd:
				th.FetchAddC(pt.ref(s), s.a1, func(old uint64) {
					pt.checkOld(i, old)
					next()
				})
			case stFreeRealloc:
				realloc := func() {
					th.AllAllocC("data", progDataElems, 8, progDataBlock, func(a *SharedArray) {
						pt.arr[0] = a
						next()
					})
				}
				if th.ID() == 0 {
					th.FreeC(pt.arr[0], realloc)
				} else {
					realloc()
				}
			}
		})
	}
	th.AllAllocC("data", progDataElems, 8, progDataBlock, func(a *SharedArray) {
		pt.arr[0] = a
		th.AllAllocC("ctr", progCtrElems, 8, progCtrBlock, func(c *SharedArray) {
			pt.arr[1] = c
			run()
		})
	})
}
