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
// Puts from non-home nodes always ship as AMs; co-located threads write
// directly under the same per-node lock.
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
	"xlupc/internal/svd"
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
func (g geom) shardOf(key uint64) int { return int(splitmix64(key) % uint64(g.threads)) }

// bucketOf picks the key's home bucket line inside its shard, using
// hash bits independent of the ones shardOf consumed.
func (g geom) bucketOf(key uint64) int64 {
	return int64((splitmix64(key) / uint64(g.threads)) % uint64(g.buckets))
}

// lineIdx is the global element index of the seq word of bucket b in
// shard s. Shard s is exactly block s of the block-cyclic layout, so
// the whole shard — and every 64-byte line in it — is contiguous in
// the owner's chunk and never splits across a ContigRun boundary.
func (g geom) lineIdx(shard int, b int64) int64 {
	return int64(shard)*g.shardWords() + b*bucketWords
}

// slotRef names one slot: the global element index of its bucket
// line's seq word plus the slot number within the line.
type slotRef struct {
	line int64
	slot int
}

// Table is one thread's view of the shared key-value store. Each
// thread constructs its own instance over the collectively allocated
// segment; Stats and the scratch buffers are therefore thread-private.
//
// Every operation exists once, in continuation-passing style (GetC,
// PutC): a ladder of steps, each started by the core
// operation the one before it waited in. A thread has one operation in
// flight, so the ladder's state lives here, in op, and its steps are
// func values bound once, in do — an operation allocates no closures.
// The blocking methods are those plus core.Thread's Wake and Await.
type Table struct {
	a     *core.SharedArray
	g     geom
	opts  Options
	Stats Stats

	line [bucketBytes]byte // bucket-line scratch (one op in flight per thread)
	rep  [8]byte           // AM reply scratch
	w    [16]byte          // slot staging for writes

	lk *sim.Resource // this node's shard lock, resolved on first write
	op
	do steps

	// What a blocking method parks for its ...C form to complete: the
	// thread's wake, and where keepVal/keepOK leave the result.
	wake  func()
	val   uint64
	found bool
}

// op is the operation in flight.
type op struct {
	t         *core.Thread
	key, arg  uint64 // arg: Put's value
	shard     int    // the key's owner thread
	home      int    // ... and its node
	local     bool
	b0, probe int64 // the key's home bucket, and how far along its window
	idx       int64 // the line probe reads

	// Write path: the scan under the lock, the slot being written and
	// its line's sequence word.
	ws  writeScan
	tgt slotRef
	seq uint64

	thenVal func(uint64, bool) // the caller's then: Get
	thenOK  func(bool)         // ... Put
}

// steps are the methods an operation hands to core as its next step.
type steps struct {
	probed, reread, scan, scanned                   func()
	seqRead, seqOdd, inWindow, slotWritten, seqEven func()
	lookedUp, wrote                                 func(n int)
	keepVal                                         func(uint64, bool)
	keepOK                                          func(bool)
}

func newTable(a *core.SharedArray, g geom, o Options) *Table {
	tb := &Table{a: a, g: g, opts: o}
	tb.do = steps{
		probed: tb.probed, reread: tb.reread, scan: tb.scan, scanned: tb.scanned,
		seqRead: tb.seqRead, seqOdd: tb.seqOdd, inWindow: tb.inWindow,
		slotWritten: tb.slotWritten, seqEven: tb.seqEven,
		lookedUp: tb.lookedUp, wrote: tb.wrote,
		keepVal: tb.keepVal, keepOK: tb.keepOK,
	}
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
// segment — one block per shard, labelled KindKV in every SVD replica.
func NewC(t *core.Thread, o Options, then func(*Table)) {
	g := normalize(&o, t.Threads())
	if t.ID() == 0 {
		registerHandlers(t.Runtime(), g)
	}
	t.AllAllocKindC(svd.KindKV, o.Name, int64(g.threads)*g.shardWords(), 8, g.shardWords(),
		func(a *core.SharedArray) { then(newTable(a, g, o)) })
}

// New is NewC for a blocking body.
func New(t *core.Thread, o Options) (tb *Table) {
	wake := t.Wake()
	NewC(t, o, func(x *Table) { tb = x; wake() })
	t.Await()
	return tb
}

// lock returns this node's shard lock: writers and AM lookups
// serialize under it; one-sided readers never take it.
func (tb *Table) lock() *sim.Resource {
	if tb.lk == nil {
		key := tb.g.lockKey
		tb.lk = tb.t.NodeLocal(key, func(k *sim.Kernel) any { return sim.NewResource(k, key, 1) }).(*sim.Resource)
	}
	return tb.lk
}

// --- Blocking forms -------------------------------------------------------

// Get is GetC for a blocking body; likewise Put.
func (tb *Table) Get(t *core.Thread, key uint64) (uint64, bool) {
	tb.wake = t.Wake()
	tb.GetC(t, key, tb.do.keepVal)
	t.Await()
	return tb.val, tb.found
}

func (tb *Table) Put(t *core.Thread, key, val uint64) bool {
	tb.wake = t.Wake()
	tb.PutC(t, key, val, tb.do.keepOK)
	t.Await()
	return tb.found
}

func (tb *Table) keepVal(v uint64, ok bool) {
	tb.val, tb.found = v, ok
	tb.wake()
}

func (tb *Table) keepOK(ok bool) {
	tb.found = ok
	tb.wake()
}

// --- Starting and finishing an operation ---------------------------------

// begin records who operates on which key, and where the key lives.
func (tb *Table) begin(t *core.Thread, key uint64) {
	tb.t, tb.key = t, key
	tb.shard = tb.g.shardOf(key)
	tb.home = tb.a.Layout().NodeOf(tb.g.lineIdx(tb.shard, 0))
	tb.local = tb.home == t.Node()
	if tb.local {
		tb.Stats.LocalOps++
	} else {
		tb.Stats.RemoteOps++
	}
	tb.b0, tb.probe = tb.g.bucketOf(key), 0
}

// finishVal and finishOK complete the operation. The caller's then may
// start the next one, so it is taken out of op first and called last.
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
	tb.Stats.Gets++
	tb.begin(t, key)
	tb.thenVal = then
	if !tb.local && tb.opts.ReadViaAM {
		tb.amGet()
		return
	}
	tb.readLine()
}

// readLine reads the next line of the key's probe window with no lock
// held; probed looks at it.
func (tb *Table) readLine() {
	if tb.probe >= probeWindow {
		tb.resolved(0, false)
		return
	}
	tb.idx = tb.g.lineIdx(tb.shard, (tb.b0+tb.probe)%tb.g.buckets)
	tb.reread()
}

func (tb *Table) reread() { tb.t.GetBulkC(tb.line[:], tb.a.At(tb.idx), tb.do.probed) }

func (tb *Table) probed() {
	if binary.LittleEndian.Uint64(tb.line[:8])&1 == 1 {
		if !tb.local {
			// Torn one-sided read: the write landed mid-window. One AM
			// retry is authoritative — the handler runs under the shard
			// lock at the home node.
			tb.Stats.TornRetries++
			tb.amGet()
			return
		}
		tb.Stats.TornRereads++
		// The writer finishes within its window, so a spaced re-read
		// converges.
		tb.t.SleepC(rereadBackoff, tb.do.reread)
		return
	}
	if slot, ok, stop := findKey(tb.line[:], tb.key); stop {
		tb.resolved(slot, ok)
		return
	}
	tb.probe++
	tb.readLine()
}

// resolved ends the probe: the key is in slot of the line just read, or
// nowhere.
func (tb *Table) resolved(slot int, ok bool) {
	if !ok {
		tb.Stats.Misses++
		tb.finishVal(0, false)
		return
	}
	tb.Stats.Found++
	tb.finishVal(binary.LittleEndian.Uint64(tb.line[16+16*slot:]), true)
}

// findKey inspects a consistent bucket line for key: (slot, found,
// stop). stop is false only when the line is full of other keys, i.e.
// probing must continue.
func findKey(line []byte, key uint64) (slot int, ok, stop bool) {
	for s := 0; s < slotsPerBucket; s++ {
		k := binary.LittleEndian.Uint64(line[8+16*s:])
		if k == key {
			return s, true, true
		}
		if k == emptyKey {
			// Inserts fill the first free slot, so an empty slot proves
			// the key is nowhere later in the window.
			return 0, false, true
		}
	}
	return 0, false, false
}

func (tb *Table) amGet() {
	tb.Stats.AMLookups++
	tb.t.CallAMC(tb.a, tb.home, hLookup, tb.key, 0, lookupWireBytes, tb.rep[:], "kv_lookup", tb.do.lookedUp)
}

func (tb *Table) lookedUp(n int) {
	if n == 0 {
		tb.Stats.Misses++
		tb.finishVal(0, false)
		return
	}
	tb.Stats.Found++
	tb.finishVal(binary.LittleEndian.Uint64(tb.rep[:]), true)
}

// --- Write path ---------------------------------------------------------

// PutC installs (key, val), updating in place when the key exists. It
// reports false when the probe window is full (overflow). Writes at
// the home node go direct under the shard lock; remote writes ship as
// AMs executed there.
func (tb *Table) PutC(t *core.Thread, key, val uint64, then func(ok bool)) {
	checkKey(key)
	tb.Stats.Puts++
	tb.begin(t, key)
	tb.arg, tb.thenOK = val, then
	if tb.local {
		tb.ws = writeScan{}
		t.AcquireC(tb.lock(), tb.do.scan)
		return
	}
	t.CallAMC(tb.a, tb.home, hPut, key, val, putWireBytes, tb.rep[:], "kv_put", tb.do.wrote)
}

func (tb *Table) wrote(n int) {
	if n != 1 {
		panic(fmt.Sprintf("kv: write reply of %d bytes", n))
	}
	ok := tb.rep[0] == statusOK
	if !ok {
		tb.Stats.Overflows++
	}
	tb.finishOK(ok)
}

// scan walks the probe window under the shard lock, looking for the
// key's slot or the first free one. Reads
// go through the thread's local GET path (it holds the shard's
// home-node lock, so lines are consistent).
func (tb *Table) scan() {
	if tb.probe >= probeWindow {
		tb.place()
		return
	}
	tb.idx = tb.g.lineIdx(tb.shard, (tb.b0+tb.probe)%tb.g.buckets)
	tb.t.GetBulkC(tb.line[:], tb.a.At(tb.idx), tb.do.scanned)
}

func (tb *Table) scanned() {
	if tb.ws.add(tb.line[:], tb.key, tb.idx) {
		tb.place()
		return
	}
	tb.probe++
	tb.scan()
}

// writeScan is what the write path learns walking a key's probe window:
// the slot to write — the key's own, or the first free one — if any.
type writeScan struct {
	tgt   slotRef
	found bool
}

// add folds in the consistent line at idx and reports whether the walk
// is over: the key was found, or an empty slot proves it absent and is
// where it goes.
func (ws *writeScan) add(line []byte, key uint64, idx int64) (stop bool) {
	for s := 0; s < slotsPerBucket; s++ {
		if k := binary.LittleEndian.Uint64(line[8+16*s:]); k == key || k == emptyKey {
			ws.tgt, ws.found = slotRef{idx, s}, true
			return true
		}
	}
	return false
}

// place ends the scan: write the slot found, or fail a Put that found
// the window full.
func (tb *Table) place() {
	if !tb.ws.found {
		tb.lk.Release()
		tb.Stats.Overflows++
		tb.finishOK(false)
		return
	}
	tb.tgt = tb.ws.tgt
	// The seqlock write protocol: seq goes odd, the slot is written
	// inside the window, seq goes even.
	tb.t.GetBulkC(tb.w[:8], tb.a.At(tb.tgt.line), tb.do.seqRead)
}

func (tb *Table) seqRead() {
	tb.seq = binary.LittleEndian.Uint64(tb.w[:8])
	tb.t.PutUint64C(tb.a.At(tb.tgt.line), tb.seq+1, tb.do.seqOdd)
}

func (tb *Table) seqOdd() { tb.t.SleepC(tb.g.window, tb.do.inWindow) }

func (tb *Table) inWindow() {
	slot := tb.a.At(tb.tgt.line + int64(1+2*tb.tgt.slot))
	binary.LittleEndian.PutUint64(tb.w[0:8], tb.key)
	binary.LittleEndian.PutUint64(tb.w[8:16], tb.arg)
	tb.t.PutBulkC(slot, tb.w[:16], tb.do.slotWritten)
}

func (tb *Table) slotWritten() {
	tb.t.PutUint64C(tb.a.At(tb.tgt.line), tb.seq+2, tb.do.seqEven)
}

func (tb *Table) seqEven() {
	tb.lk.Release()
	tb.finishOK(true)
}

// --- Home-node AM handlers ----------------------------------------------

// server is the home-node side of the kv protocol, registered once per
// run: two user-AM handlers that serialize with local writers under
// the per-node shard lock, so everything they read is consistent (even
// sequence words) and authoritative. Each request is one ladder of
// steps, like a Table operation, over a record of its own (amOp) taken
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

func (s *server) lookup(c *core.UserCtx, reply func([]byte)) { s.start(hLookup, c, reply) }
func (s *server) put(c *core.UserCtx, reply func([]byte))    { s.start(hPut, c, reply) }

// amOp is one request in service at its home node: the handler side of
// Table.op. A lookup walks the key's probe window for its slot; a put
// walks it as Table.scan does, then runs the seqlock write protocol on
// the slot through the context's local-memory primitives.
type amOp struct {
	s     *server
	c     *core.UserCtx
	reply func([]byte)

	id       core.UserHandlerID
	key, val uint64
	lock     *sim.Resource
	shard    int
	b0       int64
	probe    int64
	idx      int64
	line     [bucketBytes]byte

	ws  writeScan
	tgt slotRef
	off int64 // the target line's byte offset in the chunk
	seq uint64
	w   [16]byte

	do amSteps
}

// amSteps are the methods a request hands to its context as its next
// step, bound once per record.
type amSteps struct {
	locked, lineRead, seqRead, seqOdd, inWindow, slotWritten, seqEven func()
}

// start takes a record and begins the request: everything it does
// happens under the node's shard lock.
func (s *server) start(id core.UserHandlerID, c *core.UserCtx, reply func([]byte)) {
	op := s.free.Get()
	if op.s == nil {
		op.s = s
		op.do = amSteps{
			locked: op.locked, lineRead: op.lineRead, seqRead: op.seqRead, seqOdd: op.seqOdd,
			inWindow: op.inWindow, slotWritten: op.slotWritten, seqEven: op.seqEven,
		}
	}
	op.id, op.c, op.reply = id, c, reply
	op.key, op.val = c.Args()
	op.lock = ctxLock(c, s.g)
	c.AcquireC(op.lock, op.do.locked)
}

// finish releases the shard lock — every path of a request ends here —
// returns the record and replies.
func (op *amOp) finish(payload []byte) {
	op.lock.Release()
	reply := op.reply
	op.c, op.reply, op.lock = nil, nil, nil
	op.s.free.Put(op)
	reply(payload)
}

func ctxLock(c *core.UserCtx, g geom) *sim.Resource {
	return c.NodeLocal(g.lockKey, func(k *sim.Kernel) any { return sim.NewResource(k, g.lockKey, 1) }).(*sim.Resource)
}

func (op *amOp) locked() {
	g := op.s.g
	op.shard, op.b0, op.probe, op.ws = g.shardOf(op.key), g.bucketOf(op.key), 0, writeScan{}
	op.readLine()
}

// readLine reads the next line of the key's probe window into line, or
// ends the walk.
func (op *amOp) readLine() {
	g := op.s.g
	if op.probe >= probeWindow {
		if op.id == hLookup {
			op.finish(nil)
			return
		}
		op.place()
		return
	}
	op.idx = g.lineIdx(op.shard, (op.b0+op.probe)%g.buckets)
	op.c.ReadLocalC(op.c.ChunkOffset(op.idx), op.line[:], op.do.lineRead)
}

func (op *amOp) lineRead() {
	if binary.LittleEndian.Uint64(op.line[:8])&1 == 1 {
		panic("kv: odd sequence under the shard lock")
	}
	if op.id == hLookup {
		if slot, ok, stop := findKey(op.line[:], op.key); stop {
			if !ok {
				op.finish(nil)
				return
			}
			op.finish(append([]byte(nil), op.line[16+16*slot:][:8]...))
			return
		}
	} else if op.ws.add(op.line[:], op.key, op.idx) {
		op.place()
		return
	}
	op.probe++
	op.readLine()
}

// place ends a put's scan: write the slot found, or fail a put that
// found the window full.
func (op *amOp) place() {
	if !op.ws.found {
		op.finish(failReply)
		return
	}
	op.tgt = op.ws.tgt
	// The seqlock write protocol: seq goes odd, the slot is written
	// inside the window, seq goes even.
	op.off = op.c.ChunkOffset(op.tgt.line)
	op.c.ReadLocalC(op.off, op.w[:8], op.do.seqRead)
}

func (op *amOp) seqRead() {
	op.seq = binary.LittleEndian.Uint64(op.w[:8])
	binary.LittleEndian.PutUint64(op.w[:8], op.seq+1)
	op.c.WriteLocalC(op.off, op.w[:8], op.do.seqOdd)
}

func (op *amOp) seqOdd() { op.c.SleepC(op.s.g.window, op.do.inWindow) }

func (op *amOp) inWindow() {
	slotOff := op.off + int64(8+16*op.tgt.slot)
	binary.LittleEndian.PutUint64(op.w[0:8], op.key)
	binary.LittleEndian.PutUint64(op.w[8:16], op.val)
	op.c.WriteLocalC(slotOff, op.w[:16], op.do.slotWritten)
}

func (op *amOp) slotWritten() {
	binary.LittleEndian.PutUint64(op.w[:8], op.seq+2)
	op.c.WriteLocalC(op.off, op.w[:8], op.do.seqEven)
}

func (op *amOp) seqEven() { op.finish(okReply) }

// splitmix64 is the table's key hash (thread-count-independent, so the
// same key population is comparable across machine sizes).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
