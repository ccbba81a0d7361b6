// Package kv is a Storm-style sharded key-value dataplane layered on
// the PGAS runtime. The table is a sharded open-addressing hash table
// living in ordinary shared memory: each UPC thread owns one shard — a
// run of fixed-size 64-byte bucket lines inside its node's shared
// segment — and key→shard placement is pure hashing, so any thread can
// compute a key's home without metadata traffic.
//
// Reads follow the Storm protocol: a GET is a one-sided RDMA read of
// the bucket line through the remote address cache (falling back to
// the runtime's AM GET on a cache miss, which piggybacks the base
// address so the next read goes one-sided). Writers never block
// readers; instead every bucket line carries a per-bucket sequence
// word maintained like a seqlock — a writer flips it odd, mutates the
// slot, and flips it even — so a one-sided read that lands inside the
// write window observes an odd sequence, knows the line is torn, and
// retries exactly once through a user-level active message executed at
// the home node under the shard lock (authoritative by construction).
// Puts from non-home nodes ship as AMs; co-located threads write
// directly under the same per-node lock. Both run one writer (walk):
// the same probe pass and seqlock write, each over its own side of the
// home node's memory.
//
// In the simulation a 64-byte memory read is instantaneous at the
// point of RDMA completion, so a line can never be half-copied; the
// odd sequence word is therefore the only torn-read manifestation, and
// observing it is a complete detection.
package kv

import (
	"encoding/binary"
	"fmt"

	"xlupc/internal/core"
	"xlupc/internal/pool"
	"xlupc/internal/sim"
)

// Handler ids the kv subsystem claims in the runtime's user-AM table.
// One Table per Runtime: a second New in the same run would
// double-register and panic, which is the intended loud failure.
const (
	hLookup core.UserHandlerID = 1 + iota
	hPut
)

// Bucket line geometry: 8 words of 8 bytes. Word 0 is the seqlock
// word, words 1..6 hold three (key, value) slot pairs, word 7 pads the
// line to 64 bytes so lines never share a cache-line-sized transfer.
const (
	bucketWords    = 8
	bucketBytes    = bucketWords * 8
	slotsPerBucket = 3
	// probeWindow is the open-addressing probe length in bucket lines;
	// a key lives within probeWindow lines of its hash bucket or the
	// insert reports overflow.
	probeWindow = 4
)

// emptyKey is the key word of a free slot. Real keys must avoid it, so
// callers use keys in [1, 2^63); the load generator's scrambler
// guarantees it.
const emptyKey = uint64(0)

// rereadBackoff spaces the local torn-read re-read loop so it always
// advances virtual time even on a zero-latency memory profile.
const rereadBackoff = 100 * sim.Ns

// Reply status bytes of the put AM.
const (
	statusOK   = 0
	statusFail = 1 // the probe window is full
)

// Wire sizes of the AM argument payloads beyond the fixed envelope.
const (
	lookupWireBytes = 8  // key
	putWireBytes    = 16 // key + value
)

// Options configures a Table. All threads must pass identical Options
// to New (it is a collective).
type Options struct {
	// Name labels the shared segment in the SVD (default "kv").
	Name string
	// NumKeys sizes the table: the key population Preload installs, at
	// ~25% slot load.
	NumKeys int64
	// WriteWindow widens the seqlock's odd-sequence window (the
	// vulnerable interval a one-sided read can land in). Zero leaves
	// only the natural shared-memory write costs; tests widen it to
	// provoke torn reads deterministically.
	WriteWindow sim.Duration
	// ReadViaAM disables the one-sided read path: every remote GET
	// ships as a lookup AM. This is the measurement baseline the
	// cached path is compared against; local reads stay direct either
	// way, exactly as an AM-only runtime would behave.
	ReadViaAM bool
}

// Stats are one thread's operation counters (each thread holds its own
// Table instance, so counters need no synchronization).
type Stats struct {
	Gets, Puts          int64
	LocalOps, RemoteOps int64
	Found, Misses       int64
	TornRetries         int64 // remote reads that saw an odd sequence and retried via AM
	TornRereads         int64 // local reads that saw an odd sequence and re-read
	AMLookups           int64 // lookups shipped as AMs (torn retries + ReadViaAM)
	Overflows           int64 // puts rejected because the probe window was full
}

// Add folds o's counters into s — aggregating per-thread Stats into a
// run-level total.
func (s *Stats) Add(o Stats) {
	s.Gets += o.Gets
	s.Puts += o.Puts
	s.LocalOps += o.LocalOps
	s.RemoteOps += o.RemoteOps
	s.Found += o.Found
	s.Misses += o.Misses
	s.TornRetries += o.TornRetries
	s.TornRereads += o.TornRereads
	s.AMLookups += o.AMLookups
	s.Overflows += o.Overflows
}

// geom is the sharding arithmetic, identical on every thread and
// captured immutably by the AM handlers.
type geom struct {
	threads int
	buckets int64 // bucket lines per shard
	window  sim.Duration
	lockKey string
}

func (g geom) shardWords() int64 { return g.buckets * bucketWords }

// shardOf places a key on its owner thread.
func (g geom) shardOf(key uint64) int { return int(sim.SplitMix64(key) % uint64(g.threads)) }

// bucketOf picks the key's home bucket line inside its shard, using
// hash bits independent of the ones shardOf consumed.
func (g geom) bucketOf(key uint64) int64 {
	return int64((sim.SplitMix64(key) / uint64(g.threads)) % uint64(g.buckets))
}

// lineIdx is the global element index of the seq word of bucket b in
// shard s. Shard s is exactly block s of the block-cyclic layout, so
// the whole shard — and every 64-byte line in it — is contiguous in
// the owner's chunk and never splits across a ContigRun boundary.
func (g geom) lineIdx(shard int, b int64) int64 {
	return int64(shard)*g.shardWords() + b*bucketWords
}

// Table is one thread's view of the shared key-value store. Each
// thread constructs its own instance over the collectively allocated
// segment; Stats and the scratch buffers are therefore thread-private.
//
// Every operation exists once, in continuation-passing style (GetC,
// PutC): a ladder of steps, each started by the core
// operation the one before it waited in. A thread has one operation in
// flight, so the ladder's state lives here, in walk and the fields
// after it, and its steps are func values bound once, in do and in the
// walk's step — an operation allocates no closures.
// The blocking methods are those plus core.Thread's Await and Resume.
type Table struct {
	threadMem // the thread and the table's array
	walk      // the operation's probe pass and co-located write, over threadMem
	opts      Options
	Stats     Stats

	rep [8]byte // AM reply scratch

	home    int // the key's home node
	local   bool
	thenVal func(uint64, bool) // the caller's then: Get
	thenOK  func(bool)         // ... Put
	do      steps

	// Where keepVal/keepOK leave a blocking method's result.
	got uint64
	ok  bool
}

// steps are the methods an operation hands to core as its next step.
type steps struct {
	lookupReplied, putReplied func(n int)
	keepVal                   func(uint64, bool)
	keepOK                    func(bool)
}

func newTable(a *core.SharedArray, g geom, o Options) *Table {
	tb := &Table{threadMem: threadMem{a: a}, opts: o}
	tb.bind(&tb.threadMem, tb, g)
	tb.do = steps{lookupReplied: tb.lookupReplied, putReplied: tb.putReplied, keepVal: tb.keepVal, keepOK: tb.keepOK}
	return tb
}

// normalize fills Options defaults and derives the geometry.
func normalize(o *Options, threads int) geom {
	if o.Name == "" {
		o.Name = "kv"
	}
	if o.NumKeys <= 0 {
		panic("kv: Options.NumKeys must be positive")
	}
	// Size for ~25% slot load: 4·K/T slots per shard across 3-slot
	// buckets, so probeWindow overflow stays negligible.
	b := max((4*o.NumKeys+3*int64(threads)-1)/(3*int64(threads)), probeWindow)
	return geom{threads: threads, buckets: b, window: o.WriteWindow, lockKey: "kv:" + o.Name + ":lock"}
}

// NewC collectively builds the table: thread 0 registers the AM
// handlers (before the allocation's opening barrier, so no kv AM can
// race registration) and every thread allocates the shared bucket
// segment — one block per shard, named o.Name in every SVD replica.
func NewC(t *core.Thread, o Options, then func(*Table)) {
	g := normalize(&o, t.Threads())
	if t.ID() == 0 {
		registerHandlers(t.Runtime(), g)
	}
	t.AllAllocC(o.Name, int64(g.threads)*g.shardWords(), 8, g.shardWords(),
		func(a *core.SharedArray) { then(newTable(a, g, o)) })
}

// New is NewC for a blocking body.
func New(t *core.Thread, o Options) (tb *Table) {
	t.Await(sim.Func(func() {
		NewC(t, o, func(x *Table) { tb = x; t.Resume() })
	}), 0)
	return tb
}

// --- Blocking forms -------------------------------------------------------

// The starts of the blocking forms (Step).
const (
	startGet = iota
	startPut
)

// Get is GetC for a blocking body; likewise Put. Each stages the
// operation's thread, key and value where GetC and PutC put them, and
// awaits its start.
func (tb *Table) Get(t *core.Thread, key uint64) (uint64, bool) {
	tb.t, tb.key = t, key
	t.Await(tb, startGet)
	return tb.got, tb.ok
}

func (tb *Table) Put(t *core.Thread, key, val uint64) bool {
	tb.t, tb.key, tb.val = t, key, val
	t.Await(tb, startPut)
	return tb.ok
}

// Step starts the operation a blocking form staged (core.Thread.Await).
func (tb *Table) Step(pc int) {
	if pc == startGet {
		tb.GetC(tb.t, tb.key, tb.do.keepVal)
		return
	}
	tb.PutC(tb.t, tb.key, tb.val, tb.do.keepOK)
}

func (tb *Table) keepVal(v uint64, ok bool) {
	tb.got, tb.ok = v, ok
	tb.t.Resume()
}

func (tb *Table) keepOK(ok bool) {
	tb.ok = ok
	tb.t.Resume()
}

// --- Starting and finishing an operation ---------------------------------

// begin records who operates on which key, and where the key lives.
func (tb *Table) begin(t *core.Thread, key uint64) {
	tb.t = t
	tb.aim(key)
	tb.home = tb.a.Layout().NodeOf(tb.g.lineIdx(tb.shard, 0))
	tb.local = tb.home == t.Node()
	if tb.local {
		tb.Stats.LocalOps++
	} else {
		tb.Stats.RemoteOps++
	}
}

// finishVal and finishOK complete the operation. The caller's then may
// start the next one, so it is taken out of the Table first and called
// last.
func (tb *Table) finishVal(v uint64, ok bool) {
	then := tb.thenVal
	tb.thenVal = nil
	then(v, ok)
}

func (tb *Table) finishOK(ok bool) {
	then := tb.thenOK
	tb.thenOK = nil
	then(ok)
}

func checkKey(key uint64) {
	if key == emptyKey {
		panic(fmt.Sprintf("kv: key %#x collides with the empty-slot sentinel", key))
	}
}

// --- Read path ----------------------------------------------------------

// GetC reads key and passes then its value and presence. Remote reads
// are one-sided through the address cache; a torn line (odd seq)
// retries exactly once through the authoritative lookup AM.
func (tb *Table) GetC(t *core.Thread, key uint64, then func(val uint64, ok bool)) {
	checkKey(key)
	tb.Stats.Gets++
	tb.begin(t, key)
	tb.thenVal = then
	if !tb.local && tb.opts.ReadViaAM {
		tb.amGet()
		return
	}
	tb.storing = false
	tb.next()
}

// torn is what a Get does with a line it read, with no lock held,
// inside a writer's window.
func (tb *Table) torn() {
	if !tb.local {
		// Torn one-sided read: the write landed mid-window. One AM
		// retry is authoritative — the handler runs under the shard
		// lock at the home node.
		tb.Stats.TornRetries++
		tb.amGet()
		return
	}
	tb.Stats.TornRereads++
	// The writer finishes within its window, so a spaced re-read of
	// the same line converges.
	tb.t.SleepC(rereadBackoff, tb.step.next)
}

func (tb *Table) looked() { tb.gotVal(tb.hit()) }

func (tb *Table) amGet() {
	tb.Stats.AMLookups++
	tb.t.CallAMC(tb.a, tb.home, hLookup, tb.key, 0, lookupWireBytes, tb.rep[:], "kv_lookup", tb.do.lookupReplied)
}

func (tb *Table) lookupReplied(n int) { tb.gotVal(binary.LittleEndian.Uint64(tb.rep[:]), n != 0) }

// gotVal ends a Get: the key holds v, or (!ok) is absent.
func (tb *Table) gotVal(v uint64, ok bool) {
	if !ok {
		tb.Stats.Misses++
		tb.finishVal(0, false)
		return
	}
	tb.Stats.Found++
	tb.finishVal(v, true)
}

// --- Write path ---------------------------------------------------------

// PutC installs (key, val), updating in place when the key exists. It
// reports false when the probe window is full (overflow). A co-located
// thread runs the write itself, under the shard lock; a remote one
// ships it as an AM the home node runs.
func (tb *Table) PutC(t *core.Thread, key, val uint64, then func(ok bool)) {
	checkKey(key)
	tb.Stats.Puts++
	tb.begin(t, key)
	tb.thenOK = then
	if !tb.local {
		t.CallAMC(tb.a, tb.home, hPut, key, val, putWireBytes, tb.rep[:], "kv_put", tb.do.putReplied)
		return
	}
	if tb.lock == nil {
		lk := tb.g.lockKey
		tb.lock = t.NodeLocal(lk, func(k *sim.Kernel) any { return sim.NewResource(k, lk, 1) }).(*sim.Resource)
	}
	tb.val, tb.storing = val, true
	t.AcquireC(tb.lock, tb.step.next)
}

func (tb *Table) putReplied(n int) {
	if n != 1 {
		panic(fmt.Sprintf("kv: write reply of %d bytes", n))
	}
	tb.wrote(tb.rep[0] == statusOK)
}

// wrote ends a Put: false means the probe window was full.
func (tb *Table) wrote(ok bool) {
	if !ok {
		tb.Stats.Overflows++
	}
	tb.finishOK(ok)
}

// --- Memory sides -------------------------------------------------------

// memSide is how a walk reaches the table's memory at the key's home
// node, by global element index. Both sides pay a local access's
// shared-memory cost; they differ in whose access it is.
type memSide interface {
	read(idx int64, dst []byte, then func())
	write(idx int64, src []byte, then func())
	sleep(d sim.Duration, then func())
}

// threadMem is a co-located thread's side: its own local GET and PUT on
// the table's array, so each access counts, spans and costs events as
// one of the thread's local operations.
type threadMem struct {
	t *core.Thread
	a *core.SharedArray
}

func (m *threadMem) read(idx int64, dst []byte, then func())  { m.t.GetBulkC(dst, m.a.At(idx), then) }
func (m *threadMem) write(idx int64, src []byte, then func()) { m.t.PutBulkC(m.a.At(idx), src, then) }
func (m *threadMem) sleep(d sim.Duration, then func())        { m.t.SleepC(d, then) }

// ctxMem is the home node's side: a user-AM context's accesses to its
// node's chunk of the table.
type ctxMem struct{ c *core.UserCtx }

func (m *ctxMem) read(idx int64, dst []byte, then func()) {
	m.c.ReadLocalC(m.c.ChunkOffset(idx), dst, then)
}

func (m *ctxMem) write(idx int64, src []byte, then func()) {
	m.c.WriteLocalC(m.c.ChunkOffset(idx), src, then)
}

func (m *ctxMem) sleep(d sim.Duration, then func()) { m.c.SleepC(d, then) }

// --- The walk: one probe pass, one writer ---------------------------------

// walk is an operation at the key's home memory: one pass over the
// key's probe window and, for a Put, the seqlock write of the slot the
// pass stops at. Each step is written once and reaches memory through
// m, so a co-located Table operation (over threadMem) and a request at
// the home node (over ctxMem) run the same ladder, and each reports to
// its owner. The owner binds it once, so walking allocates nothing.
type walk struct {
	m memSide
	o owner
	g geom

	key, val  uint64 // val: what a write stores
	storing   bool   // the pass ends in a write, not in o.looked
	shard     int
	b0, probe int64 // the key's home bucket, and how far along its window
	idx       int64 // the line next reads
	line      [bucketBytes]byte
	slot      int // where the pass stopped in line; -1: the window is full

	lock *sim.Resource // the shard lock a write holds
	seq  uint64        // the written line's sequence word
	w    [16]byte      // write staging

	step walkSteps
}

// owner is what a walk works for — a Table operation or a home-node
// request — and what it reports to: a line read inside a write window,
// the end of a pass that only looks, and the end of a write (the shard
// lock already released).
type owner interface {
	torn()
	looked()
	wrote(ok bool)
}

// walkSteps are the methods a walk hands to its memory side as its next
// step.
type walkSteps struct {
	next, probed, seqRead, seqOdd, inWindow, slotWritten, seqEven func()
}

func (w *walk) bind(m memSide, o owner, g geom) {
	w.m, w.o, w.g = m, o, g
	w.step = walkSteps{
		next: w.next, probed: w.probed, seqRead: w.seqRead, seqOdd: w.seqOdd,
		inWindow: w.inWindow, slotWritten: w.slotWritten, seqEven: w.seqEven,
	}
}

// aim points the walk at key's probe window. The owner then sets
// storing — and, for a write, val and the held lock — and starts next.
func (w *walk) aim(key uint64) {
	w.key = key
	w.shard, w.b0, w.probe = w.g.shardOf(key), w.g.bucketOf(key), 0
}

// next reads the window's next line, or stops the pass with slot -1
// once the window is exhausted.
func (w *walk) next() {
	if w.probe >= probeWindow {
		w.slot = -1
		w.stop()
		return
	}
	w.idx = w.g.lineIdx(w.shard, (w.b0+w.probe)%w.g.buckets)
	w.m.read(w.idx, w.line[:], w.step.probed)
}

// probed looks at the line just read. A consistent line stops the pass
// at the first slot that holds the key or is free — inserts fill the
// first free slot, so a free one proves the key is nowhere later in the
// window — or sends it on to the next line.
func (w *walk) probed() {
	if binary.LittleEndian.Uint64(w.line[:8])&1 == 1 {
		w.o.torn()
		return
	}
	for s := 0; s < slotsPerBucket; s++ {
		if k := binary.LittleEndian.Uint64(w.line[8+16*s:]); k == w.key || k == emptyKey {
			w.slot = s
			w.stop()
			return
		}
	}
	w.probe++
	w.next()
}

// stop ends the pass: a write goes on to place, a look reports.
func (w *walk) stop() {
	if w.storing {
		w.place()
		return
	}
	w.o.looked()
}

// hit reports whether the pass stopped at the key's own slot, and the
// value there.
func (w *walk) hit() (uint64, bool) {
	if w.slot < 0 || binary.LittleEndian.Uint64(w.line[8+16*w.slot:]) != w.key {
		return 0, false
	}
	return binary.LittleEndian.Uint64(w.line[16+16*w.slot:]), true
}

// place ends a write's pass: write the slot found, or fail a Put that
// found the window full.
func (w *walk) place() {
	if w.slot < 0 {
		w.end(false)
		return
	}
	// The seqlock write protocol: seq goes odd, the slot is written
	// inside the window, seq goes even.
	w.m.read(w.idx, w.w[:8], w.step.seqRead)
}

func (w *walk) seqRead() {
	w.seq = binary.LittleEndian.Uint64(w.w[:8])
	binary.LittleEndian.PutUint64(w.w[:8], w.seq+1)
	w.m.write(w.idx, w.w[:8], w.step.seqOdd)
}

func (w *walk) seqOdd() { w.m.sleep(w.g.window, w.step.inWindow) }

func (w *walk) inWindow() {
	binary.LittleEndian.PutUint64(w.w[0:8], w.key)
	binary.LittleEndian.PutUint64(w.w[8:16], w.val)
	w.m.write(w.idx+int64(1+2*w.slot), w.w[:16], w.step.slotWritten)
}

func (w *walk) slotWritten() {
	binary.LittleEndian.PutUint64(w.w[:8], w.seq+2)
	w.m.write(w.idx, w.w[:8], w.step.seqEven)
}

func (w *walk) seqEven() { w.end(true) }

// end releases the shard lock and reports the write.
func (w *walk) end(ok bool) {
	w.lock.Release()
	w.o.wrote(ok)
}

// --- Home-node AM handlers ----------------------------------------------

// server is the home-node side of the kv protocol, registered once per
// run: two user-AM handlers that serialize with co-located writers
// under the per-node shard lock, so everything they read is consistent
// (even sequence words) and authoritative. Each request runs a walk
// over the context's memory side, on a record of its own (amOp) taken
// from a free list — no more are ever in use than the run has
// dispatcher contexts — so serving a request allocates nothing but a
// found value's reply.
type server struct {
	g    geom
	free pool.Free[amOp]
}

// Reply payloads of the put handler: one status byte each,
// immutable, so no request builds its own.
var (
	okReply   = []byte{statusOK}
	failReply = []byte{statusFail}
)

// registerHandlers installs the kv protocol in the runtime's user-AM
// table.
func registerHandlers(rt *core.Runtime, g geom) {
	s := &server{g: g}
	rt.HandleUser(hLookup, s.lookup)
	rt.HandleUser(hPut, s.put)
}

func (s *server) lookup(c *core.UserCtx, reply func([]byte)) { s.start(c, reply, false) }
func (s *server) put(c *core.UserCtx, reply func([]byte))    { s.start(c, reply, true) }

// amOp is one request in service at its home node: the walk a Table
// would run there, over the context's memory side, and the reply it
// owes.
type amOp struct {
	walk
	ctxMem
	s     *server
	reply func([]byte)
}

// start takes a record and begins the request: everything it does
// happens under the node's shard lock.
func (s *server) start(c *core.UserCtx, reply func([]byte), write bool) {
	op := s.free.Get()
	if op.s == nil {
		op.s = s
		op.bind(&op.ctxMem, op, s.g)
	}
	op.c, op.reply = c, reply
	key, val := c.Args()
	op.aim(key)
	op.val, op.storing = val, write
	op.lock = c.NodeLocal(s.g.lockKey, func(k *sim.Kernel) any { return sim.NewResource(k, s.g.lockKey, 1) }).(*sim.Resource)
	c.AcquireC(op.lock, op.step.next)
}

// torn never happens at the home node: it reads only under the shard
// lock, where no write window is ever open.
func (op *amOp) torn() { panic("kv: odd sequence under the shard lock") }

func (op *amOp) looked() {
	op.lock.Release()
	v, ok := op.hit()
	if !ok {
		op.finish(nil)
		return
	}
	op.finish(binary.LittleEndian.AppendUint64(nil, v))
}

func (op *amOp) wrote(ok bool) {
	if !ok {
		op.finish(failReply)
		return
	}
	op.finish(okReply)
}

// finish returns the record and replies; every request ends here, its
// shard lock released.
func (op *amOp) finish(payload []byte) {
	reply := op.reply
	op.c, op.reply, op.lock = nil, nil, nil
	op.s.free.Put(op)
	reply(payload)
}
