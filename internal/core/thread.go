package core

import (
	"fmt"
	"math/rand"

	"xlupc/internal/mem"
	"xlupc/internal/sim"
	"xlupc/internal/svd"
	"xlupc/internal/telemetry"
	"xlupc/internal/transport"
)

// Thread is one UPC thread. Bodies passed to Runtime.Run or RunCont
// receive their Thread and use it for every interaction with shared
// memory and the simulated machine. A Thread's methods may only be
// called from its own body (the simulation kernel runs one process at
// a time, so this is a discipline, not a locking requirement).
//
// Every operation that takes virtual time exists once, as a ladder of
// steps: the lower-case method (getRun, barrier, ...) starts it and
// returns when the thread has to wait, each later step runs from the
// kernel event that ends the wait, and the last one resumes whatever
// the thread had parked beneath the ladder (sim.Cont.Then). What is
// parked there decides the API style. The ...C methods park the
// caller's then; the blocking methods park the wake of the process
// they are called on, and Await it. Nested ladders (a barrier's fence,
// a fence's SyncAll, a GET's eager leg) park their caller's next step.
// A thread is sequential, so there is at most one ladder of each kind
// in progress and its state lives here, in opState, rather than in a
// closure per step.
type Thread struct {
	rt *Runtime
	id int
	ns *nodeState
	p  *sim.Proc // the process the body runs on under Run; nil under RunCont
	c  *sim.Cont // holds the parked steps; under Run, p's companion

	// Next to the above because every step reads it, and at scale every
	// step finds the thread cold in the cache.
	opState

	acks *sim.Counter // PUTs not yet acknowledged: what a fence waits for
	rng  *rand.Rand

	// nbOut is the issue-ordered list of outstanding split-phase
	// operations; SyncAll (and through it every fence and barrier)
	// drains it.
	nbOut []*nbOp

	// nbPool recycles retired split-phase descriptors (see nbio.go).
	nbPool []*nbOp

	// w64 stages single-element 8-byte transfers, so GetUint64/PutUint64
	// (the pointer-chaser hot path) allocate nothing.
	w64 [8]byte

	ops OpStats
}

// opState is the state of the ladders a thread has in progress.
type opState struct {
	// The data operation in flight — one contiguous run of a GET, PUT or
	// atomic, a user AM call, or a run being redone at retire: where it
	// goes, the caller's buffer, its span and clock readings.
	a         *SharedArray
	rn        int
	off       int64
	buf       []byte
	span      *telemetry.Span
	start, t0 sim.Time
	kind      int               // remote: which row of remoteKinds consults the cache
	cb        *svd.ControlBlock // local access: the resolved control block
	done      *sim.Completion   // the reply awaited (eager GET, RTS, AM atomic, user AM)
	rdma      transport.RDMAResult
	rtrBase   mem.Addr // rendezvous answer: the target's base (0: pinning refused)
	rtrEpoch  uint32   // and the incarnation that pinned it
	aop       transport.AtomicOp
	a1        uint64 // atomic: the operand

	// The callback of a ...C method that passes the operation's result
	// on — a func of whichever type that method takes. One is enough: a
	// caller continues only after its operation has.
	thenT any

	// Results, for the blocking caller to pick up after Await and the
	// typed ...C forms to hand to thenT.
	old uint64       // atomic: previous value
	n   int          // CallAMC: reply length
	arr *SharedArray // collective allocation

	// A transfer being split into per-affinity runs (see bulk).
	bulkKind int
	bulkA    *SharedArray
	bulkIdx  int64
	bulkN    int64
	bulkBuf  []byte

	// Split-phase bookkeeping: the operation being issued, SyncAll's
	// position in nbOut, and the operation it is retiring with the
	// position in it.
	nb  *nbOp
	si  int
	rop *nbOp
	ri  int

	// Enclosing ladders: Compute's duration and the spans of a fence, a
	// barrier and a collective allocation.
	d                   sim.Duration
	fspan, bspan, aspan *telemetry.Span
}

// newThreads builds the runtime's threads, and their fence counters,
// as two slabs.
func newThreads(rt *Runtime) []*Thread {
	n := rt.cfg.Threads
	slab, acks := make([]Thread, n), sim.NewCounters(rt.K, "fence", n)
	ths := make([]*Thread, n)
	for id := range slab {
		slab[id] = Thread{rt: rt, id: id, ns: rt.nodeOfThread(id), acks: &acks[id]}
		ths[id] = &slab[id]
	}
	return ths
}

// Step numbers of the thread's ladders (see steps).
const (
	pcThenW64 = iota
	pcThenOld
	pcThenN
	pcThenArray

	pcComputeAcquired
	pcComputeDone
	pcFenceSynced
	pcFenceDone
	pcBulkNext

	pcLocalGetDone
	pcLocalPutDone
	pcLocalAtomicDone

	pcLookup
	pcGetRDMADone
	pcGetRendezvoused
	pcGetRDMA2Done
	pcGetFinish
	pcAwaitReply
	pcEagerDone
	pcRTSDone

	pcPutRDMADone
	pcPutCopied
	pcPutCopiedNoAddr
	pcPutRendezvoused
	pcPutFinish

	pcAtomicRDMADone
	pcAMAtomicDone
	pcAtomicFinish

	pcUserDone

	pcNbIssued
	pcNbGetStarted
	pcNbGetSent
	pcNbAtomicStarted
	pcNbAtomicSent

	pcSyncAllNext
	pcSyncAllRetired
	pcRetireWoke
	pcRetireNext

	pcBarrierFenced
	pcBarrierArrive
	pcBarrierRelease
	pcBarrierDone
	pcBarrierSent
	pcDisseminate

	pcAllocOpened
	pcAllocInstall
	pcAllocClosed

	numSteps
)

// steps maps a step number to the method that runs it. (Filled in by
// init because the methods refer back to it.)
var steps [numSteps]func(*Thread)

func init() {
	steps = [numSteps]func(*Thread){
		pcThenW64:   (*Thread).callThenW64,
		pcThenOld:   (*Thread).callThenOld,
		pcThenN:     (*Thread).callThenN,
		pcThenArray: (*Thread).callThenArray,

		pcComputeAcquired: (*Thread).computeAcquired,
		pcComputeDone:     (*Thread).computeDone,
		pcFenceSynced:     (*Thread).fenceSynced,
		pcFenceDone:       (*Thread).fenceDone,
		pcBulkNext:        (*Thread).bulkNext,

		pcLocalGetDone:    (*Thread).localGetDone,
		pcLocalPutDone:    (*Thread).localPutDone,
		pcLocalAtomicDone: (*Thread).localAtomicDone,

		pcLookup:          (*Thread).lookup,
		pcGetRDMADone:     (*Thread).getRDMADone,
		pcGetRendezvoused: (*Thread).getRendezvoused,
		pcGetRDMA2Done:    (*Thread).getRDMA2Done,
		pcGetFinish:       (*Thread).getFinish,
		pcAwaitReply:      (*Thread).awaitReply,
		pcEagerDone:       (*Thread).eagerDone,
		pcRTSDone:         (*Thread).rtsDone,

		pcPutRDMADone:     (*Thread).putRDMADone,
		pcPutCopied:       (*Thread).putCopied,
		pcPutCopiedNoAddr: (*Thread).putCopiedNoAddr,
		pcPutRendezvoused: (*Thread).putRendezvoused,
		pcPutFinish:       (*Thread).putFinish,

		pcAtomicRDMADone: (*Thread).atomicRDMADone,
		pcAMAtomicDone:   (*Thread).amAtomicDone,
		pcAtomicFinish:   (*Thread).atomicFinish,

		pcUserDone: (*Thread).userDone,

		pcNbIssued:        (*Thread).nbIssued,
		pcNbGetStarted:    (*Thread).nbGetStarted,
		pcNbGetSent:       (*Thread).nbGetSent,
		pcNbAtomicStarted: (*Thread).nbAtomicStarted,
		pcNbAtomicSent:    (*Thread).nbAtomicSent,

		pcSyncAllNext:    (*Thread).syncAllNext,
		pcSyncAllRetired: (*Thread).syncAllRetired,
		pcRetireWoke:     (*Thread).retireWoke,
		pcRetireNext:     (*Thread).retireNext,

		pcBarrierFenced:  (*Thread).barrierFenced,
		pcBarrierArrive:  (*Thread).barrierArrive,
		pcBarrierRelease: (*Thread).barrierRelease,
		pcBarrierDone:    (*Thread).barrierDone,
		pcBarrierSent:    (*Thread).barrierSent,
		pcDisseminate:    (*Thread).disseminate,

		pcAllocOpened:  (*Thread).allocOpened,
		pcAllocInstall: (*Thread).allocInstall,
		pcAllocClosed:  (*Thread).allocClosed,
	}
}

// Step runs step pc of the ladder it belongs to (sim.Stepper).
func (t *Thread) Step(pc int) { steps[pc](t) }

// park parks step pc beneath whatever the thread starts next.
func (t *Thread) park(pc int) { t.c.Park(t, pc) }

// after is park for a wait: it parks step pc and returns the func that
// runs it, to hand to the primitive the thread is about to wait in.
func (t *Thread) after(pc int) func() { return t.c.Then(t, pc) }

// The callThen steps are what a ...C method taking a typed callback
// parks first: the operation is complete, run the callback on its
// result. (One taking a plain func() parks that, as a sim.Func.)

// typed takes the caller's callback out of thenT.
func (t *Thread) typed() any {
	then := t.thenT
	t.thenT = nil
	return then
}

func (t *Thread) callThenW64()   { t.typed().(func(uint64))(byteOrder.Uint64(t.w64[:])) }
func (t *Thread) callThenOld()   { t.typed().(func(uint64))(t.old) }
func (t *Thread) callThenN()     { t.typed().(func(int))(t.n) }
func (t *Thread) callThenArray() { t.typed().(func(*SharedArray))(t.arr) }

// request sends an active message that will be answered by completing
// t.done; step pc runs when the reply is in.
func (t *Thread) request(pc int, rn int, id transport.HandlerID, meta any, extra int) {
	t.park(pc)
	t.rt.M.SendAMSpanC(t.c, t.ns.id, rn, id, meta, nil, extra, t.span, t.after(pcAwaitReply))
}

// awaitReply runs once a request is on the wire.
func (t *Thread) awaitReply() { t.done.WaitFn(t.c, t.c.Resumer()) }

// ID is the UPC thread id (MYTHREAD).
func (t *Thread) ID() int { return t.id }

// Threads is the total thread count (THREADS).
func (t *Thread) Threads() int { return t.rt.cfg.Threads }

// Node is the cluster node this thread runs on.
func (t *Thread) Node() int { return t.ns.id }

// Runtime returns the runtime this thread belongs to, so layers above
// (internal/kv) can register user-AM handlers.
func (t *Thread) Runtime() *Runtime { return t.rt }

// ThreadsPerNode is the hybrid fan-out (co-located threads share
// memory and a NIC).
func (t *Thread) ThreadsPerNode() int { return t.rt.cfg.ThreadsPerNode() }

// Now is the current virtual time (valid in both execution modes).
func (t *Thread) Now() sim.Time { return t.rt.K.Now() }

// Rand is the thread's deterministic random source (workloads use it
// so runs are reproducible for a config seed). Built on first use: a
// rand source is ~5KB, which at 128k threads would dominate startup
// memory for workloads that never draw one.
func (t *Thread) Rand() *rand.Rand {
	if t.rng == nil {
		t.rng = rand.New(rand.NewSource(t.rt.cfg.Seed ^ int64(uint64(t.id)*0x9e3779b97f4a7c15>>1)))
	}
	return t.rng
}

// Compute models local computation: the thread occupies one of its
// node's cores for d. On transports with no communication overlap this
// is exactly the time the node cannot serve remote requests.
func (t *Thread) Compute(d sim.Duration) {
	t.p.ParkWake()
	t.compute(d)
	t.p.Await()
}

// ComputeC is Compute in continuation-passing style.
func (t *Thread) ComputeC(d sim.Duration, then func()) {
	t.c.Park(sim.Func(then), 0)
	t.compute(d)
}

func (t *Thread) compute(d sim.Duration) {
	if d <= 0 {
		t.c.Resume()
		return
	}
	t.t0, t.d = t.Now(), d
	t.ns.tn.CPU.AcquireCont(t.c, t.after(pcComputeAcquired))
}

func (t *Thread) computeAcquired() { t.c.Sleep(t.d, t.after(pcComputeDone)) }

func (t *Thread) computeDone() {
	t.ns.tn.CPU.Release()
	t.rt.tel.AddCompute(t.id, t.t0, t.Now())
	t.c.Resume()
}

// Sleep advances the thread without occupying a core (idle wait).
func (t *Thread) Sleep(d sim.Duration) {
	t.SleepC(d, t.p.Wake())
	t.p.Await()
}

// SleepC is Sleep in continuation-passing style.
func (t *Thread) SleepC(d sim.Duration, then func()) { t.c.Sleep(d, then) }

// Wake and Await are how a layer above core gives an operation it wrote
// in continuation form a blocking form too, the way every blocking
// method here is built: pass Wake() as the then — call it before the
// operation starts, once per operation — and Await returns when the
// operation has run it. No kernel event is added. (See sim.Proc.Wake.)
func (t *Thread) Wake() func() { return t.p.Wake() }
func (t *Thread) Await()       { t.p.Await() }

// Fence blocks until every PUT this thread issued has completed at its
// target (upc_fence). Outstanding split-phase operations are retired
// first, so a fence is a full consistency point for non-blocking
// traffic too.
func (t *Thread) Fence() {
	t.p.ParkWake()
	t.fence()
	t.p.Await()
}

// FenceC is Fence in continuation-passing style.
func (t *Thread) FenceC(then func()) {
	t.c.Park(sim.Func(then), 0)
	t.fence()
}

func (t *Thread) fence() {
	t.park(pcFenceSynced)
	t.syncAll()
}

func (t *Thread) fenceSynced() {
	if t.acks.Pending() == 0 {
		t.c.Resume()
		return
	}
	t.fspan = t.rt.tel.StartSpan("fence", t.id, t.ns.id, t.Now())
	t.acks.WaitFn(t.c, t.after(pcFenceDone))
}

func (t *Thread) fenceDone() {
	t.fspan.Finish(t.Now())
	t.fspan = nil
	t.c.Resume()
}

// lookupLocal resolves the control block of a on the thread's own
// node. Every allocation is collective, so the node knows every array a
// thread holds.
func (t *Thread) lookupLocal(a *SharedArray) *svd.ControlBlock {
	cb, ok := t.ns.dir.LookupAny(a.h)
	if !ok || cb.Freed {
		panic(fmt.Sprintf("core: thread %d: access to freed array %s", t.id, a.name))
	}
	return cb
}

// Local returns the node-memory bytes of the n-byte run at r, which
// must be one affinity run on the caller's own node: UPC's cast of a
// pointer-to-shared to a local pointer. Loads and stores through the
// view are the node's memory itself and charge nothing; what the model
// charges is the GetBulk and PutBulk the program issues, and one
// between the view and its own bytes costs exactly what it would with a
// private buffer (the host copy is of the bytes onto themselves). A
// crash restart relocates the node's chunks (crashNode): the view keeps
// the bytes it had and stops aliasing, which is what a private buffer
// would have done, so a program correct with one is correct with the
// view.
func (t *Thread) Local(r Ref, n int) []byte {
	rn, off := r.A.l.Locate(r.Idx)
	if rn != t.ns.id || runElems("Local", n, r) > r.A.l.ContigRun(r.Idx) {
		panic(fmt.Sprintf("core: thread %d: %v+%d bytes is not one run on its node %d", t.id, r, n, t.ns.id))
	}
	return t.ns.tn.Mem.View(t.lookupLocal(r.A).LocalBase+mem.Addr(off), n)
}

// ForAll runs body once for every index of a that is affine to this
// thread, in ascending order — upc_forall with affinity &a[i]. It
// steps Layout.NextOwned from owned index to owned index rather than
// filtering all indices.
func (t *Thread) ForAll(a *SharedArray, body func(i int64)) {
	l := a.l
	for i := l.NextOwned(t.id, 0); i < l.NumElems; i = l.NextOwned(t.id, i+1) {
		body(i)
	}
}

// --- Element accessors -------------------------------------------------

// Get reads the single element at r into a fresh byte slice.
func (t *Thread) Get(r Ref) []byte {
	dst := make([]byte, r.A.l.ElemSize)
	t.GetBulk(dst, r)
	return dst
}

// GetUint64 reads element r of an 8-byte-element array. It stages
// through the thread's fixed 8-byte buffer, so the hot pointer-chasing
// path performs no allocation.
func (t *Thread) GetUint64(r Ref) uint64 {
	t.GetBulk(t.w64[:], r)
	return byteOrder.Uint64(t.w64[:])
}

// GetUint64C is GetUint64 in continuation-passing style.
func (t *Thread) GetUint64C(r Ref, then func(v uint64)) {
	t.thenT = then
	t.park(pcThenW64)
	t.getBulk(t.w64[:], r)
}

// PutUint64 writes element r of an 8-byte-element array. Safe to stage
// through the shared 8-byte buffer: every PUT path captures the source
// bytes before the call returns control to the thread.
func (t *Thread) PutUint64(r Ref, v uint64) {
	byteOrder.PutUint64(t.w64[:], v)
	t.PutBulk(r, t.w64[:])
}

// PutUint64C is PutUint64 in continuation-passing style.
func (t *Thread) PutUint64C(r Ref, v uint64, then func()) {
	byteOrder.PutUint64(t.w64[:], v)
	t.PutBulkC(r, t.w64[:], then)
}

// GetBulk reads len(dst) bytes of consecutive elements starting at r
// (upc_memget). len(dst) must be a multiple of the element size. The
// transfer is split into per-affinity contiguous runs.
func (t *Thread) GetBulk(dst []byte, r Ref) {
	t.p.ParkWake()
	t.getBulk(dst, r)
	t.p.Await()
}

// GetBulkC is GetBulk in continuation-passing style.
func (t *Thread) GetBulkC(dst []byte, r Ref, then func()) {
	t.c.Park(sim.Func(then), 0)
	t.getBulk(dst, r)
}

func (t *Thread) getBulk(dst []byte, r Ref) {
	t.bulk(kindGet, r, runElems("GetBulk", len(dst), r), dst)
}

// PutBulk writes len(src) bytes of consecutive elements starting at r
// (upc_memput). len(src) must be a multiple of the element size.
func (t *Thread) PutBulk(r Ref, src []byte) {
	t.p.ParkWake()
	t.putBulk(r, src)
	t.p.Await()
}

// PutBulkC is PutBulk in continuation-passing style.
func (t *Thread) PutBulkC(r Ref, src []byte, then func()) {
	t.c.Park(sim.Func(then), 0)
	t.putBulk(r, src)
}

func (t *Thread) putBulk(r Ref, src []byte) {
	t.bulk(kindPut, r, runElems("PutBulk", len(src), r), src)
}

// runElems validates a bulk transfer of size bytes at r and returns
// its length in elements.
func runElems(op string, size int, r Ref) int64 {
	es := int64(r.A.l.ElemSize)
	if int64(size)%es != 0 {
		panic("core: " + op + " length not a multiple of element size")
	}
	n := int64(size) / es
	if n > 0 {
		r.A.check(r.Idx + n - 1)
	}
	return n
}

// The kinds of data operation: the three transfers that bulk splits
// into single-affinity contiguous runs, and the atomics. A remote one
// consults the address cache by its row of remoteKinds.
const (
	kindGet = iota
	kindPut
	kindNbGet
	kindAtomic
	kindNbAtomic
	numKinds
)

// bulk performs a transfer of n elements at r, through buf, one run at
// a time; an empty one (n == 0) resumes at once, at no cost.
func (t *Thread) bulk(kind int, r Ref, n int64, buf []byte) {
	if n > 0 && r.A.l.ContigRun(r.Idx) >= n {
		// A single run — every element access and most bulk transfers.
		t.run(kind, r.A, r.Idx, buf)
		return
	}
	t.bulkKind, t.bulkA, t.bulkIdx, t.bulkN, t.bulkBuf = kind, r.A, r.Idx, n, buf
	t.bulkNext()
}

func (t *Thread) bulkNext() {
	if t.bulkN == 0 {
		t.bulkA, t.bulkBuf = nil, nil
		t.c.Resume()
		return
	}
	a, idx := t.bulkA, t.bulkIdx
	run := a.l.ContigRun(idx)
	if run > t.bulkN {
		run = t.bulkN
	}
	size := run * int64(a.l.ElemSize)
	part := t.bulkBuf[:size]
	t.bulkBuf = t.bulkBuf[size:]
	t.bulkIdx += run
	t.bulkN -= run
	t.park(pcBulkNext)
	t.run(t.bulkKind, a, idx, part)
}

func (t *Thread) run(kind int, a *SharedArray, idx int64, buf []byte) {
	switch kind {
	case kindGet:
		t.getRun(a, idx, buf)
	case kindPut:
		t.putRun(a, idx, buf)
	case kindNbGet:
		t.nbGetRun(a, idx, buf)
	}
}
