package core

import (
	"xlupc/internal/addrcache"
	"xlupc/internal/mem"
	"xlupc/internal/sim"
	"xlupc/internal/svd"
	"xlupc/internal/telemetry"
	"xlupc/internal/transport"
)

// cacheKey builds the address-cache key for an object on a node.
func cacheKey(h svd.Handle, node int) addrcache.Key {
	return addrcache.Key{Handle: h.Key(), Node: int32(node)}
}

// piggybackBytes is the wire cost of carrying a remote base address on
// a reply or ACK.
const piggybackBytes = 8

// maxPiggybackPairs caps how many extra (handle, base) pairs one reply
// of a coalesced frame may carry beyond its own, bounding the
// piggyback bytes a batch of misses adds to the wire.
const maxPiggybackPairs = 4

// addrPair is one piggybacked (handle, base) correlation, stamped with
// the advertising node's incarnation epoch. Replies serviced from the
// same coalesced frame share the pairs they pinned, so a single batch
// of misses pre-populates several cache entries at the initiator. The
// epoch rides inside the existing piggybackBytes wire accounting (a
// simulation fiction: a real header would pack it into the address's
// spare bits), so enabling the crash machinery changes no wire sizes.
type addrPair struct {
	H     svd.Handle
	Base  mem.Addr
	Epoch uint32
}

// pairsFor shares a freshly advertised (handle, base, epoch) pair with
// the other replies of the same coalesced frame and collects the pairs
// this reply should carry (its own base travels in the reply header,
// not here). extra is the total piggyback wire cost. For individual
// messages (no frame scratch) it degenerates to the original
// single-address accounting.
func pairsFor(msg *transport.Msg, h svd.Handle, base mem.Addr, epoch uint32) (pairs []addrPair, extra int) {
	if base != 0 {
		extra = piggybackBytes
	}
	if msg.Batch == nil {
		return nil, extra
	}
	if msg.Batch.Val == nil {
		msg.Batch.Val = &[]addrPair{}
	}
	acc := msg.Batch.Val.(*[]addrPair)
	if base != 0 {
		known := false
		for _, pr := range *acc {
			if pr.H == h {
				known = true
				break
			}
		}
		if !known && len(*acc) < maxPiggybackPairs {
			*acc = append(*acc, addrPair{H: h, Base: base, Epoch: epoch})
		}
	}
	for _, pr := range *acc {
		if pr.H == h {
			continue
		}
		pairs = append(pairs, pr)
		extra += piggybackBytes
	}
	return pairs, extra
}

// --- Protocol message headers ------------------------------------------

// getReq asks the target to read Size bytes at chunk offset Off of H
// and reply with the data (the default, non-RDMA GET of Figure 3a/5).
type getReq struct {
	H        svd.Handle
	Off      int64
	Size     int
	WantAddr bool            // piggyback the base address on the reply
	Done     *sim.Completion // initiator-side; completed by the reply
}

// reply is the one header every answer travels under, whatever was
// asked: what an answer can carry is a payload (an eager GET's data, a
// user AM's reply), one value (an atomic's previous word, a rendezvous
// rtrResult), an arrival at a fence (a PUT's or a free's ACK), a
// completion to fire, and the piggybacked base address of H with the
// frame's extra pairs. handleReply retires them all.
type reply struct {
	H     svd.Handle
	Base  mem.Addr // 0: not piggybacked (pin failed, or the request did not want it)
	Epoch uint32   // target incarnation that advertised Base
	Pairs []addrPair
	Fence *sim.Counter    // nil: nothing fenced
	Done  *sim.Completion // completed with the payload if there is one, else with Val
	Val   any
}

// putReq carries PUT data (as payload) to the target.
type putReq struct {
	H        svd.Handle
	Off      int64
	WantAddr bool
	Fence    *sim.Counter // initiator thread's fence; Arrives on ACK
}

// rts is the rendezvous request-to-send for large transfers: the
// target translates and pins, then answers with the base address (an
// rtrResult) so the transfer itself is zero-copy RDMA.
type rts struct {
	H    svd.Handle
	Done *sim.Completion // completed with rtrResult at the initiator
}

type rtrResult struct {
	base  mem.Addr
	epoch uint32
	ok    bool // pinning succeeded; false forces the eager fallback
}

// --- Target-side handlers ----------------------------------------------
//
// Each handler is a ladder of steps on its dispatcher context (amCtx,
// runtime.go).

func (rt *Runtime) handleGetReq(ct *sim.Cont, n *transport.Node, msg *transport.Msg, then func()) {
	x := rt.serve(ct, n, msg, then)
	m := msg.Meta.(*getReq)
	x.translate(m.H, m.WantAddr, hcGetTranslated)
}

func (x *amCtx) getTranslated() {
	// Eager reply: the data is copied into a (pre-registered) bounce
	// buffer before injection — the copy cost that RDMA avoids.
	x.t0 = x.rt.K.Now()
	x.ct.Sleep(sim.BytesTime(x.msg.Meta.(*getReq).Size, x.rt.cfg.Profile.CopyByteTime), x.after(hcGetCopied))
}

func (x *amCtx) getCopied() {
	rt, m := x.rt, x.msg.Meta.(*getReq)
	x.msg.Span.Phase(telemetry.PhaseCopy, x.t0, rt.K.Now())
	data := rt.hdr.bounce.Get(m.Size)
	x.ns.tn.Mem.Read(data, x.cb.LocalBase+mem.Addr(m.Off))
	rep := reply{H: m.H, Base: x.base, Epoch: x.epoch, Done: m.Done}
	rt.hdr.get.Put(m)
	x.answer(rep, data, 0)
}

// handleReply retires an answer at the initiator, always in this order:
// copy the payload out of the receive bounce buffer, fill the cache from
// the piggybacked addresses, arrive at the fence, fire the completion.
// What an answer does not carry costs nothing: an empty payload sleeps
// no time and records no phase.
func (rt *Runtime) handleReply(ct *sim.Cont, n *transport.Node, msg *transport.Msg, then func()) {
	x := rt.serve(ct, n, msg, then)
	rt.hdr.reply.Live(msg.Meta.(*reply))
	x.t0 = rt.K.Now()
	ct.Sleep(sim.BytesTime(len(msg.Payload), rt.cfg.Profile.CopyByteTime), x.after(hcReplyCopied))
}

func (x *amCtx) replyCopied() {
	m := x.msg.Meta.(*reply)
	x.msg.Span.Phase(telemetry.PhaseCopy, x.t0, x.rt.K.Now())
	if x.ns.cache == nil || (m.Base == 0 && len(m.Pairs) == 0) {
		x.replyFilled()
		return
	}
	x.park(hcReplyFilled)
	x.t0, x.pi = x.rt.K.Now(), -2
	x.insertPiggyback()
}

func (x *amCtx) replyFilled() {
	m, payload := x.msg.Meta.(*reply), x.msg.Payload
	fence, done, val := m.Fence, m.Done, m.Val
	x.rt.hdr.reply.Put(m)
	if fence != nil {
		fence.Arrive()
	}
	if len(payload) > 0 {
		done.CompleteBytes(payload)
	} else if done != nil {
		done.Complete(val)
	}
	x.then()
}

// insertPiggyback fills the initiator's cache from a reply's
// piggybacked addresses — the one place the cache is filled, reached
// from the one place a reply is retired: the replier's own (handle,
// base), exactly as the blocking protocol always has, plus any extra
// pairs accumulated across the sub-messages of a coalesced frame. Every
// new entry pays the insert cost, then is inserted; pairs already
// resident (an earlier reply of the same frame filled them) are skipped
// without charge. It is its own next step: x.pi is the entry whose cost
// has just been paid (-1: the replier's own; -2 on entry, none).
func (x *amCtx) insertPiggyback() {
	m, src, cache := x.msg.Meta.(*reply), x.msg.Src, x.ns.cache
	cost := transport.CacheInsertCost
	switch {
	case x.pi >= 0:
		pr := m.Pairs[x.pi]
		cache.InsertEpoch(cacheKey(pr.H, src), pr.Base, pr.Epoch)
	case x.pi == -1:
		cache.InsertEpoch(cacheKey(m.H, src), m.Base, m.Epoch)
	case m.Base != 0:
		x.pi = -1
		x.ct.Sleep(cost, x.after(hcFill))
		return
	default:
		x.pi = -1
	}
	for x.pi++; x.pi < len(m.Pairs); x.pi++ {
		pr := m.Pairs[x.pi]
		if pr.Base == 0 || pr.H == m.H || cache.Contains(cacheKey(pr.H, src)) {
			continue
		}
		x.ct.Sleep(cost, x.after(hcFill))
		return
	}
	x.msg.Span.Phase(telemetry.PhaseCacheInsert, x.t0, x.rt.K.Now())
	x.ct.Resume()
}

func (rt *Runtime) handlePutReq(ct *sim.Cont, n *transport.Node, msg *transport.Msg, then func()) {
	x := rt.serve(ct, n, msg, then)
	m := msg.Meta.(*putReq)
	x.translate(m.H, m.WantAddr, hcPutTranslated)
}

func (x *amCtx) putTranslated() {
	// Copy from the receive bounce buffer into place.
	x.t0 = x.rt.K.Now()
	x.ct.Sleep(sim.BytesTime(len(x.msg.Payload), x.rt.cfg.Profile.CopyByteTime), x.after(hcPutCopied))
}

func (x *amCtx) putCopied() {
	rt, m := x.rt, x.msg.Meta.(*putReq)
	x.msg.Span.Phase(telemetry.PhaseCopy, x.t0, rt.K.Now())
	x.ns.tn.Mem.Write(x.cb.LocalBase+mem.Addr(m.Off), x.msg.Payload)
	rt.hdr.bounce.Put(x.msg.Payload)
	// The ACK may carry the base address too (the paper populates the
	// cache "either on the data stream or on the ACK message").
	rep := reply{H: m.H, Base: x.base, Epoch: x.epoch, Fence: m.Fence}
	rt.hdr.put.Put(m)
	x.answer(rep, nil, 0)
}

func (rt *Runtime) handleRTS(ct *sim.Cont, n *transport.Node, msg *transport.Msg, then func()) {
	x := rt.serve(ct, n, msg, then)
	x.translate(msg.Meta.(*rts).H, true, hcRTSTranslated) // rendezvous always registers
}

func (x *amCtx) rtsTranslated() {
	rt, m, msg := x.rt, x.msg.Meta.(*rts), x.msg
	rep := rt.newReply(reply{H: m.H, Base: x.base, Epoch: x.epoch, Done: m.Done, Val: rtrResult{base: x.base, epoch: x.epoch, ok: x.base != 0}})
	rt.hdr.rts.Put(m)
	// Not through answer: the address is what was asked for, so its bytes
	// are on the wire even when the pin was refused (base 0).
	rt.M.SendAMSpanC(x.ct, msg.Dst, msg.Src, hReply, rep, nil, piggybackBytes, msg.Span, x.then)
}

// --- Initiator-side operations ------------------------------------------
//
// One run of a GET or PUT climbs the paper's ladder: shared memory when
// the element is on this node; else probe the address cache and, on a
// hit, go one-sided; else — or when the target refuses the one-sided
// operation — the active-message path, whose reply piggybacks the base
// address that fills the cache for next time.

// remoteKind is what differs between the kinds of remote operation
// where the address cache is consulted.
type remoteKind struct {
	op    string // the span's name
	split bool   // split-phase: the span is latency, not time the thread waits
	put   bool   // consults the cache only where the profile caches PUTs
	hit   func(t *Thread, base mem.Addr, epoch uint32)
	miss  func(t *Thread)
}

// remoteKinds is indexed by kind. (Filled in by init, like steps.)
var remoteKinds [numKinds]remoteKind

func init() {
	remoteKinds = [numKinds]remoteKind{
		kindGet:      {"get", false, false, (*Thread).getHit, (*Thread).getSlow},
		kindPut:      {"put", false, true, (*Thread).putHit, (*Thread).putSlow},
		kindNbGet:    {"get", true, false, (*Thread).nbGetHit, (*Thread).nbGetEager},
		kindAtomic:   {"atomic", false, false, (*Thread).atomicHit, (*Thread).atomicMiss},
		kindNbAtomic: {"atomic", true, false, (*Thread).nbAtomicHit, (*Thread).nbAtomicAM},
	}
}

// remote starts the remote operation the caller has set up (t.a, t.rn,
// t.off, t.start): it opens the span and consults the address cache —
// the one place a lookup is paid for. A node without a cache, and a PUT
// where the profile does not cache PUTs, goes straight to the kind's
// miss path.
func (t *Thread) remote(kind, bytes int) {
	k := &remoteKinds[kind]
	t.span = t.rt.tel.StartSpan(k.op, t.id, t.ns.id, t.start)
	if k.split {
		t.span.MarkSplit()
	}
	t.span.SetBytes(bytes)
	if t.ns.cache != nil && (!k.put || t.rt.putCache) {
		t.kind, t.t0 = kind, t.Now()
		t.c.Sleep(transport.CacheLookupCost, t.after(pcLookup))
		return
	}
	k.miss(t)
}

// lookup runs after the cache-lookup cost: a hit goes one-sided with
// the final remote address computed locally, a miss takes the kind's
// active-message path.
func (t *Thread) lookup() {
	t.span.Phase(telemetry.PhaseCacheLookup, t.t0, t.Now())
	k := &remoteKinds[t.kind]
	if base, ep, hit := t.ns.cache.LookupEpoch(cacheKey(t.a.h, t.rn)); hit {
		t.span.SetProto("rdma")
		k.hit(t, base, ep)
		return
	}
	k.miss(t)
}

// getRun reads len(dst) bytes at element idx, which the caller
// guarantees is a single-affinity contiguous run.
func (t *Thread) getRun(a *SharedArray, idx int64, dst []byte) {
	rn, off := a.l.Locate(idx)
	t.a, t.off, t.buf, t.start = a, off, dst, t.Now()

	if rn == t.ns.id {
		// Intra-node: shared memory, no network.
		t.localGet()
		return
	}

	t.rn = rn
	t.remote(kindGet, len(dst))
}

func (t *Thread) localGet() {
	t.lookupLocal()
	prof := t.rt.cfg.Profile
	t.span = t.rt.tel.StartSpan("get", t.id, t.ns.id, t.start)
	t.span.SetProto("local")
	t.span.SetBytes(len(t.buf))
	t.c.Sleep(prof.ShmLatency+sim.BytesTime(len(t.buf), prof.ShmByteTime), t.after(pcLocalGetDone))
}

func (t *Thread) localGetDone() {
	t.ns.tn.Mem.Read(t.buf, t.cb.LocalBase+mem.Addr(t.off))
	t.ops.LocalGets++
	t.localDone()
}

// localDone closes a shared-memory access.
func (t *Thread) localDone() {
	t.span.Finish(t.Now())
	t.buf, t.span = nil, nil
	t.c.Resume()
}

func (t *Thread) getHit(base mem.Addr, ep uint32) {
	t.rt.M.RDMAGetSpanC(t.c, t.ns.id, t.rn, base, base+mem.Addr(t.off), t.buf, len(t.buf), ep, t.span, &t.rdma, t.after(pcGetRDMADone))
}

// getRDMADone finishes a cache-hit one-sided read, or falls back to
// the whole slow path, whose reply re-piggybacks the fresh base.
func (t *Thread) getRDMADone() {
	if t.rdma.OK {
		copy(t.buf, t.rdma.Data)
		t.getFinish()
		return
	}
	t.park(pcGetFinish)
	t.nacked("get", (*Thread).getSlowParked)
}

// nacked answers a refused one-sided read or atomic: it heals the
// cache and redoes the operation with retry over the active-message
// path, whose reply re-piggybacks the fresh base. The caller has parked
// what finishes the operation and names it (op is "get" or "atomic"):
// at retire, opState belongs to a later one. A plain NACK means the
// target deregistered the region (limited pinning), so only that entry
// is stale. A stale epoch means the target restarted under a new
// incarnation: every address cached for it is flushed, each paying the
// lookup cost (the epoch_recovery phase) — unless the run is aborting
// under CrashFail. (Crash recovery is rare enough to afford its
// closure.)
func (t *Thread) nacked(op string, retry func(*Thread)) {
	nk := t.rdma.Nack
	if !nk.Stale {
		t.ns.forget(t.a.h, t.rn)
		retry(t)
		return
	}
	if t.rt.staleAbort(t.rn, nk.Epoch, op, t.Now()) {
		t.old = 0
		t.c.Resume()
		return
	}
	t0, n := t.Now(), t.ns.flushNode(t.rn)
	t.c.Sleep(sim.Time(n)*transport.CacheLookupCost, func() {
		t.flushed(n, t.rn, nk.Epoch, t.span, t0)
		retry(t)
	})
}

// forget drops the one entry a plain NACK proved stale.
func (ns *nodeState) forget(h svd.Handle, rn int) {
	if ns.cache != nil {
		ns.cache.Remove(cacheKey(h, rn))
	}
}

// flushNode drops every address cached for node rn, which restarted,
// and returns how many there were: none on a node without a cache,
// where a rendezvous transfer can still be NACKed stale.
func (ns *nodeState) flushNode(rn int) int {
	if ns.cache == nil {
		return 0
	}
	return ns.cache.InvalidateNode(int32(rn))
}

// flushed accounts for a stale-epoch recovery that flushed n entries
// for node rn, starting at t0.
func (t *Thread) flushed(n, rn int, ep uint32, span *telemetry.Span, t0 sim.Time) {
	span.Phase(telemetry.PhaseEpochRecovery, t0, t.Now())
	t.rt.staleInvalidated += int64(n)
	t.rt.recordCacheInval(t.ns.id, rn, uint64(ep), n)
}

// getSlow is everything after the cache-hit attempt (or in its absence).
func (t *Thread) getSlow() {
	t.park(pcGetFinish)
	t.getSlowParked()
}

// getSlowParked is getSlow with getFinish already parked, as everything
// on the slow path expects.
func (t *Thread) getSlowParked() {
	if len(t.buf) <= t.rt.cfg.Profile.EagerMax {
		t.eagerGet()
		return
	}
	// Rendezvous: fetch the remote base address, then zero-copy RDMA.
	t.span.SetProto("rendezvous")
	t.park(pcGetRendezvoused)
	t.rendezvous()
}

func (t *Thread) getRendezvoused() {
	res := t.rtr
	if !res.ok {
		t.rt.pinRefused[refusedGet]++
		t.eagerGet() // registration refused: copy path
		return
	}
	t.rt.M.RDMAGetSpanC(t.c, t.ns.id, t.rn, res.base, res.base+mem.Addr(t.off), t.buf, len(t.buf), res.epoch, t.span, &t.rdma, t.after(pcGetRDMA2Done))
}

// getRDMA2Done is getRDMADone after a rendezvous: the target restarted,
// or evicted the region, between the RTR and the transfer.
func (t *Thread) getRDMA2Done() {
	if t.rdma.OK {
		copy(t.buf, t.rdma.Data)
		t.c.Resume()
		return
	}
	t.nacked("get", (*Thread).eagerGet)
}

// getFinish closes out the remote GET — a blocking one, or a
// split-phase one redone at retire: span, counters.
func (t *Thread) getFinish() {
	t.a, t.buf = nil, nil
	t.getRetired()
}

// getRetired charges a finished remote GET to the thread.
func (t *Thread) getRetired() {
	t.span.Finish(t.Now())
	t.span = nil
	t.ops.Gets++
	t.ops.GetTime += t.Now() - t.start
	t.c.Resume()
}

// eagerGet fetches the run over the active-message path: the target
// copies the data into the reply.
func (t *Thread) eagerGet() {
	t.span.SetProto("eager")
	t.done = sim.NewCompletion(t.rt.K, "get")
	t.request(pcEagerDone, t.rn, hGetReq, t.getReq(), 0)
}

// getReq returns a pooled request for the run t has set up; the target
// handler puts it back.
func (t *Thread) getReq() *getReq {
	m := t.rt.hdr.get.Get()
	*m = getReq{H: t.a.h, Off: t.off, Size: len(t.buf), WantAddr: t.ns.cache != nil, Done: t.done}
	return m
}

func (t *Thread) eagerDone() {
	data := t.done.Bytes()
	copy(t.buf, data)
	t.rt.hdr.bounce.Put(data)
	t.reply()
}

// reply recycles the completion a reply arrived on — the handler's only
// reference died with the reply — and continues.
func (t *Thread) reply() {
	t.rt.K.Recycle(t.done)
	t.done = nil
	t.c.Resume()
}

// rendezvous asks the target to translate and pin the run's object,
// leaving the answer in t.rtr.
func (t *Thread) rendezvous() {
	t.done = sim.NewCompletion(t.rt.K, "rts")
	m := t.rt.hdr.rts.Get()
	*m = rts{H: t.a.h, Done: t.done}
	t.request(pcRTSDone, t.rn, hRTS, m, 0)
}

func (t *Thread) rtsDone() {
	t.rtr = t.done.Value().(rtrResult)
	t.reply()
}

// putRun writes src at element idx (a single-affinity contiguous run).
// Remote PUTs are asynchronous: they complete under the thread's fence.
func (t *Thread) putRun(a *SharedArray, idx int64, src []byte) {
	rn, off := a.l.Locate(idx)
	t.a, t.off, t.buf, t.start = a, off, src, t.Now()

	if rn == t.ns.id {
		t.localPut()
		return
	}

	// The PUT span ends at initiator-local completion — the time the
	// thread is actually blocked; the in-flight ACK's target-side
	// phases keep accumulating and still count in attribution.
	t.rn = rn
	t.remote(kindPut, len(src))
}

func (t *Thread) localPut() {
	t.lookupLocal()
	prof := t.rt.cfg.Profile
	t.span = t.rt.tel.StartSpan("put", t.id, t.ns.id, t.start)
	t.span.SetProto("local")
	t.span.SetBytes(len(t.buf))
	t.c.Sleep(prof.ShmLatency+sim.BytesTime(len(t.buf), prof.ShmByteTime), t.after(pcLocalPutDone))
}

func (t *Thread) localPutDone() {
	t.ns.tn.Mem.Write(t.cb.LocalBase+mem.Addr(t.off), t.buf)
	t.localDone()
}

func (t *Thread) putHit(base mem.Addr, ep uint32) {
	t.park(pcPutFinish)
	t.putRDMA(base, ep)
}

// putRDMA writes the run one-sided. The origin buffer must survive
// until the remote completion (and a possible retry), so the PUT
// captures the caller's bytes.
func (t *Thread) putRDMA(base mem.Addr, ep uint32) {
	t.buf = t.rt.bounceCopy(t.buf)
	t.rt.M.RDMAPutSpanC(t.c, t.ns.id, t.rn, base, base+mem.Addr(t.off), t.buf, ep, t.span, &t.rdma, t.after(pcPutRDMADone))
}

func (t *Thread) putRDMADone() {
	t.acks.Add(1)
	t.watchPut(t.rdma.Done, t.a, t.rn, t.off, t.buf, t.span)
	t.c.Resume()
}

// putSlow is everything after the PUT-cache attempt (or in its absence).
func (t *Thread) putSlow() {
	t.park(pcPutFinish)
	if len(t.buf) <= t.rt.cfg.Profile.EagerMax {
		t.putEager(pcPutCopied)
		return
	}
	t.span.SetProto("rendezvous")
	t.park(pcPutRendezvoused)
	t.rendezvous()
}

// putEager copies into a pre-registered bounce buffer, then fires and
// forgets; copied is the step that sends.
func (t *Thread) putEager(copied int) {
	t.span.SetProto("eager")
	t.t0 = t.Now()
	t.c.Sleep(sim.BytesTime(len(t.buf), t.rt.cfg.Profile.CopyByteTime), t.after(copied))
}

func (t *Thread) putCopied()       { t.putSend(t.ns.cache != nil) }
func (t *Thread) putCopiedNoAddr() { t.putSend(false) }

func (t *Thread) putSend(wantAddr bool) {
	t.span.Phase(telemetry.PhaseCopy, t.t0, t.Now())
	t.acks.Add(1)
	t.rt.M.SendAMSpanC(t.c, t.ns.id, t.rn, hPutReq,
		t.rt.newPutReq(putReq{H: t.a.h, Off: t.off, WantAddr: wantAddr, Fence: t.acks}), t.rt.bounceCopy(t.buf), 0, t.span, t.c.Resumer())
}

// newPutReq returns a pooled PUT request holding r; the target handler
// puts it back.
func (rt *Runtime) newPutReq(r putReq) *putReq {
	m := rt.hdr.put.Get()
	*m = r
	return m
}

func (t *Thread) putRendezvoused() {
	res := t.rtr
	if !res.ok {
		t.rt.pinRefused[refusedPut]++
		t.putEager(pcPutCopiedNoAddr)
		return
	}
	t.putRDMA(res.base, res.epoch)
}

// putFinish closes out the remote PUT and charges it to the thread.
func (t *Thread) putFinish() {
	t.a, t.buf = nil, nil
	t.span.Finish(t.Now())
	t.span = nil
	t.ops.Puts++
	t.c.Resume()
}

// watchPut completes an asynchronous RDMA PUT under the thread's
// fence. A NACK (the limited-pinning policy deregistered the region
// mid-flight) drops the stale cache entry and reissues the write over
// the active-message path (putRetry); the fence does not release until
// the retry's ACK lands, so fence semantics survive eviction races. A
// stale-epoch NACK (the target restarted) first flushes every cached
// address for the node, then retries with WantAddr so the ACK
// re-piggybacks the fresh base — or aborts the run under CrashFail.
func (t *Thread) watchPut(remote *sim.Completion, a *SharedArray, rn int, off int64, data []byte, span *telemetry.Span) {
	f := t.acks
	remote.Then(func(v any) {
		nk, isNack := v.(transport.Nack)
		if !isNack {
			t.rt.hdr.bounce.Put(data) // in place at the target: its last reader is done
			f.Arrive()
			return
		}
		if nk.Stale {
			if t.rt.staleAbort(rn, nk.Epoch, "put", t.rt.K.Now()) {
				return
			}
		} else {
			t.ns.forget(a.h, rn)
		}
		r := &putRetry{t: t, rn: rn, data: data, span: span, nack: nk,
			req: t.rt.newPutReq(putReq{H: a.h, Off: off, WantAddr: nk.Stale && t.ns.cache != nil, Fence: f})}
		r.ct = t.rt.K.SpawnService("put-retry", t.id, "", r, retryStart)
	})
}

// putRetry is the reissue of thread t's NACKed RDMA PUT, on a
// continuation of its own: the thread has moved on. It pays the
// invalidation sweep of a stale-epoch NACK, then the copy into a bounce
// buffer, then sends; the ACK arrives at the PUT's fence.
type putRetry struct {
	t    *Thread
	ct   *sim.Cont
	req  *putReq // the write as an active message; after a stale NACK it wants the address
	rn   int
	data []byte
	span *telemetry.Span
	nack transport.Nack
	t0   sim.Time
	n    int // cache entries flushed
}

// putRetry steps.
const (
	retryStart = iota
	retryFlushed
	retryCopied
)

func (r *putRetry) Step(pc int) {
	t, ns, ct := r.t, r.t.ns, r.ct
	prof := t.rt.cfg.Profile
	switch pc {
	case retryStart:
		if !r.nack.Stale {
			ct.Sleep(sim.BytesTime(len(r.data), prof.CopyByteTime), ct.Then(r, retryCopied))
			return
		}
		r.t0, r.n = t.Now(), ns.flushNode(r.rn)
		ct.Sleep(sim.Time(r.n)*transport.CacheLookupCost, ct.Then(r, retryFlushed))
	case retryFlushed:
		t.flushed(r.n, r.rn, r.nack.Epoch, r.span, r.t0)
		ct.Sleep(sim.BytesTime(len(r.data), prof.CopyByteTime), ct.Then(r, retryCopied))
	case retryCopied:
		t.rt.M.SendAMSpanC(ct, ns.id, r.rn, hPutReq, r.req, r.data, 0, r.span, func() {})
	}
}
