package core

// Continuation execution mode: every method in this file mirrors its
// blocking counterpart (thread.go, getput.go, nbio.go, barrier.go,
// alloc.go) step for step, so a run under RunCont produces the exact
// kernel event sequence — and therefore bit-identical RunStats — of the
// same workload under Run. When editing one side, edit the other.

import (
	"fmt"

	"xlupc/internal/mem"
	"xlupc/internal/sim"
	"xlupc/internal/svd"
	"xlupc/internal/telemetry"
	"xlupc/internal/trace"
	"xlupc/internal/transport"
)

// ContBody is a continuation-mode program body: invoked once per UPC
// thread, written in continuation-passing style against the Thread's
// ...C methods, calling done exactly once when the thread's program is
// complete.
type ContBody func(t *Thread, done func())

// RunCont executes body once per UPC thread as continuation
// state-machines on the event heap — no goroutines, no channels, no
// per-thread stacks — driving the simulation to completion. It is the
// execution mode that makes 100k-thread sweeps feasible; bodies that
// need arbitrary Go control flow use Run instead. RunCont may be
// called once per Runtime and requires Config.Exec == ExecCont.
func (rt *Runtime) RunCont(body ContBody) (RunStats, error) {
	if rt.ran {
		return RunStats{}, fmt.Errorf("core: Runtime.RunCont called twice; build a fresh Runtime per run")
	}
	if rt.cfg.Exec != ExecCont {
		return RunStats{}, fmt.Errorf("core: Runtime.RunCont needs Config.Exec == ExecCont; use Run for goroutine mode")
	}
	rt.ran = true
	defer rt.K.Shutdown()
	rt.liveBodies = len(rt.threads)
	for _, th := range rt.threads {
		th := th
		rt.K.SpawnCIdx("upc", th.id, func(c *sim.Cont) {
			th.c = c
			body(th, func() {
				th.FenceC(func() { // drain outstanding PUTs before exiting
					c.Finish()
					rt.bodyDone()
				})
			})
		})
	}
	return rt.finishRun(rt.K.Run())
}

// ComputeC is Thread.Compute in continuation-passing style.
func (t *Thread) ComputeC(d sim.Duration, then func()) {
	if d <= 0 {
		then()
		return
	}
	t.rt.cfg.Trace.Begin(t.id, trace.StateCompute, t.Now())
	t.ns.tn.CPU.UseCont(t.c, d, func() {
		t.rt.cfg.Trace.End(t.id, t.Now())
		then()
	})
}

// SleepC is Thread.Sleep in continuation-passing style.
func (t *Thread) SleepC(d sim.Duration, then func()) { t.c.Sleep(d, then) }

// FenceC is Thread.Fence in continuation-passing style.
func (t *Thread) FenceC(then func()) {
	t.SyncAllC(func() {
		if t.fence.Pending() == 0 {
			then()
			return
		}
		span := t.rt.tel.StartSpan("fence", t.id, t.ns.id, t.Now())
		t.rt.cfg.Trace.Begin(t.id, trace.StateFenceWait, t.Now())
		t.fence.WaitC(t.c, func() {
			t.rt.cfg.Trace.End(t.id, t.Now())
			span.Finish(t.Now())
			then()
		})
	})
}

// localCBFast resolves the thread's own node's control block without
// blocking — the overwhelmingly common case, kept allocation-free.
func (t *Thread) localCBFast(a *SharedArray) (*svd.ControlBlock, bool) {
	cb, ok := t.ns.dir.LookupAny(a.h)
	if !ok {
		return nil, false
	}
	if cb.Freed {
		panic(fmt.Sprintf("core: thread %d: access to freed array %s", t.id, a.name))
	}
	return cb, true
}

// localCBC is Thread.localCB in continuation-passing style: the retry
// closure is only built when the allocation notification is still in
// flight.
func (t *Thread) localCBC(a *SharedArray, then func(cb *svd.ControlBlock)) {
	if cb, ok := t.localCBFast(a); ok {
		then(cb)
		return
	}
	var try func()
	try = func() {
		if cb, ok := t.localCBFast(a); ok {
			then(cb)
			return
		}
		t.c.Sleep(1*sim.Us, try)
	}
	t.c.Sleep(1*sim.Us, try)
}

// ForAllC is Thread.ForAll in continuation-passing style: body runs
// for each owned index in ascending order and calls next when its
// operations have completed; then runs after the last one.
func (t *Thread) ForAllC(a *SharedArray, body func(i int64, next func()), then func()) {
	l := a.l
	i := l.NextOwned(t.id, 0)
	sim.Loop(func(next func()) {
		if i >= l.NumElems {
			then()
			return
		}
		idx := i
		i = l.NextOwned(t.id, idx+1)
		body(idx, next)
	})
}

// --- Element accessors -------------------------------------------------

// GetC is Thread.Get in continuation-passing style.
func (t *Thread) GetC(r Ref, then func(data []byte)) {
	dst := make([]byte, r.A.l.ElemSize)
	t.GetBulkC(dst, r, func() { then(dst) })
}

// PutC is Thread.Put in continuation-passing style.
func (t *Thread) PutC(r Ref, data []byte, then func()) {
	if len(data) != r.A.l.ElemSize {
		panic(fmt.Sprintf("core: Put of %d bytes into %s with element size %d",
			len(data), r.A.name, r.A.l.ElemSize))
	}
	t.PutBulkC(r, data, then)
}

// GetUint64C is Thread.GetUint64 in continuation-passing style. The
// value callback parks in the thread's pre-bound op state, so the
// pointer-chase hot path builds no wrapper closure per element.
func (t *Thread) GetUint64C(r Ref, then func(v uint64)) {
	o := t.ops()
	o.u64then = then
	t.GetBulkC(t.w64[:], r, o.u64Fn)
}

// PutUint64C is Thread.PutUint64 in continuation-passing style.
func (t *Thread) PutUint64C(r Ref, v uint64, then func()) {
	byteOrder.PutUint64(t.w64[:], v)
	t.PutBulkC(r, t.w64[:], then)
}

// GetBulkC is Thread.GetBulk in continuation-passing style.
func (t *Thread) GetBulkC(dst []byte, r Ref, then func()) {
	es := int64(r.A.l.ElemSize)
	if int64(len(dst))%es != 0 {
		panic("core: GetBulk length not a multiple of element size")
	}
	n := int64(len(dst)) / es
	if n == 0 {
		then()
		return
	}
	r.A.check(r.Idx + n - 1)
	if r.A.l.ContigRun(r.Idx) >= n {
		// Single contiguous run — every element access and most bulk
		// transfers — skips the loop driver entirely.
		t.getRunC(r.A, r.Idx, dst, then)
		return
	}
	t.getBulkLoopC(dst, r, es, n, then)
}

// getBulkLoopC drives a multi-run GetBulkC. Outlined from GetBulkC so
// the loop closure's captures (which escape to the heap) are only
// allocated on the multi-run path — the single-run fast path above
// must stay allocation-free.
func (t *Thread) getBulkLoopC(dst []byte, r Ref, es, n int64, then func()) {
	idx, off := r.Idx, int64(0)
	sim.Loop(func(next func()) {
		if n == 0 {
			then()
			return
		}
		run := r.A.l.ContigRun(idx)
		if run > n {
			run = n
		}
		lo, hi, i0 := off*es, (off+run)*es, idx
		idx += run
		off += run
		n -= run
		t.getRunC(r.A, i0, dst[lo:hi], next)
	})
}

// PutBulkC is Thread.PutBulk in continuation-passing style.
func (t *Thread) PutBulkC(r Ref, src []byte, then func()) {
	es := int64(r.A.l.ElemSize)
	if int64(len(src))%es != 0 {
		panic("core: PutBulk length not a multiple of element size")
	}
	n := int64(len(src)) / es
	if n == 0 {
		then()
		return
	}
	r.A.check(r.Idx + n - 1)
	if r.A.l.ContigRun(r.Idx) >= n {
		t.putRunC(r.A, r.Idx, src, then)
		return
	}
	t.putBulkLoopC(r, src, es, n, then)
}

// putBulkLoopC is getBulkLoopC for PUTs: see there for why it is a
// separate method.
func (t *Thread) putBulkLoopC(r Ref, src []byte, es, n int64, then func()) {
	idx, off := r.Idx, int64(0)
	sim.Loop(func(next func()) {
		if n == 0 {
			then()
			return
		}
		run := r.A.l.ContigRun(idx)
		if run > n {
			run = n
		}
		lo, hi, i0 := off*es, (off+run)*es, idx
		idx += run
		off += run
		n -= run
		t.putRunC(r.A, i0, src[lo:hi], next)
	})
}

// --- GET/PUT runs (mirror getput.go) -----------------------------------

// localGetDoC performs a local GET against a resolved control block —
// the shared tail of the blocking-twin local path, zero closures: the
// post-sleep step is the thread's pre-bound localGetDone.
func (t *Thread) localGetDoC(cb *svd.ControlBlock, a *SharedArray, idx int64, dst []byte, start sim.Time, then func()) {
	prof := t.rt.cfg.Profile
	span := t.rt.tel.StartSpan("get", t.id, t.ns.id, start)
	span.SetProto("local")
	span.SetBytes(len(dst))
	o := t.ops()
	o.lcb, o.la, o.lidx, o.ldst, o.lspan, o.lthen = cb, a, idx, dst, span, then
	t.c.Sleep(prof.ShmLatency+sim.BytesTime(len(dst), prof.ShmByteTime), o.lGetFn)
}

// getRunC is getRun in continuation-passing style. The fall-through
// after a failed (or absent) cache-hit attempt lives in getSlowC, as a
// method rather than a closure, so the cache-hit fast path allocates
// nothing for code it does not run.
func (t *Thread) getRunC(a *SharedArray, idx int64, dst []byte, then func()) {
	prof := t.rt.cfg.Profile
	size := len(dst)
	rn := a.l.NodeOf(idx)
	start := t.Now()

	if rn == t.ns.id {
		if cb, ok := t.localCBFast(a); ok {
			t.localGetDoC(cb, a, idx, dst, start, then)
			return
		}
		t.localCBC(a, func(cb *svd.ControlBlock) { t.localGetDoC(cb, a, idx, dst, start, then) })
		return
	}

	off := a.l.ChunkOffset(idx)
	span := t.rt.tel.StartSpan("get", t.id, t.ns.id, start)
	span.SetBytes(size)
	t.rt.cfg.Trace.Begin(t.id, trace.StateGetWait, start)
	o := t.ops()
	o.ga, o.grn, o.goff, o.gdst, o.gspan, o.gstart, o.gthen = a, rn, off, dst, span, start, then

	if t.ns.cache != nil {
		o.gt0 = t.Now()
		t.c.Sleep(prof.CacheLookupCost, o.gLookupFn)
		return
	}
	t.getSlowC(a, rn, off, dst, span, o.gFinishFn)
}

// getSlowC is the blocking path's fall-through: everything after the
// cache-hit attempt (or in its absence).
func (t *Thread) getSlowC(a *SharedArray, rn int, off int64, dst []byte, span *telemetry.Span, finish func()) {
	prof := t.rt.cfg.Profile
	size := len(dst)
	if size <= prof.EagerMax || !prof.SupportsRDMA {
		span.SetProto("eager")
		t.eagerGetC(a, rn, off, dst, span, finish)
		return
	}
	span.SetProto("rendezvous")
	t.rendezvousC(a, rn, size, span, func(res rtrResult) {
		if !res.ok {
			span.SetProto("eager")
			t.rt.tel.Add("xlupc_get_fallbacks_total", `reason="pin_refused"`, 1)
			t.eagerGetC(a, rn, off, dst, span, finish)
			return
		}
		t.rt.M.RDMAGetSpanC(t.c, t.ns.id, rn, res.base, res.base+mem.Addr(off), dst, size, res.epoch, span,
			func(data []byte, nack transport.Nack, ok bool) {
				if !ok {
					fallback := func() {
						span.SetProto("eager")
						t.eagerGetC(a, rn, off, dst, span, finish)
					}
					if nack.Stale {
						t.healStaleC(rn, nack.Epoch, "get", span, func(cont bool) {
							if !cont {
								finish()
								return
							}
							t.rt.tel.Add("xlupc_get_fallbacks_total", `reason="stale_epoch"`, 1)
							fallback()
						})
						return
					}
					if t.ns.cache != nil {
						t.ns.cache.Remove(cacheKey(a.h, rn))
					}
					t.rt.tel.Add("xlupc_get_fallbacks_total", `reason="nack"`, 1)
					fallback()
					return
				}
				copy(dst, data)
				finish()
			})
	})
}

// eagerGetC is eagerGet in continuation-passing style: the in-flight
// fields and both steps (request-sent, reply-arrived) live in the
// thread's pre-bound op state, so a cache-miss GET builds no closures.
func (t *Thread) eagerGetC(a *SharedArray, rn int, off int64, dst []byte, span *telemetry.Span, then func()) {
	o := t.ops()
	done := sim.NewCompletion(t.rt.K, "get")
	o.edst, o.edone, o.ethen = dst, done, then
	t.rt.M.SendAMSpanC(t.c, t.ns.id, rn, hGetReq,
		&getReq{H: a.h, Off: off, Size: len(dst), WantAddr: t.ns.cache != nil, Done: done}, nil, 0, span, o.eSendFn)
}

// rendezvousC is rendezvous in continuation-passing style.
func (t *Thread) rendezvousC(a *SharedArray, rn int, size int, span *telemetry.Span, then func(res rtrResult)) {
	done := sim.NewCompletion(t.rt.K, "rts")
	t.rt.M.SendAMSpanC(t.c, t.ns.id, rn, hRTS, &rts{H: a.h, Size: size, Done: done}, nil, 0, span, func() {
		done.WaitC(t.c, func(v any) {
			res := v.(rtrResult)
			t.rt.K.Recycle(done)
			then(res)
		})
	})
}

// localPutDoC performs a local PUT against a resolved control block.
func (t *Thread) localPutDoC(cb *svd.ControlBlock, a *SharedArray, idx int64, src []byte, start sim.Time, then func()) {
	prof := t.rt.cfg.Profile
	span := t.rt.tel.StartSpan("put", t.id, t.ns.id, start)
	span.SetProto("local")
	span.SetBytes(len(src))
	o := t.ops()
	o.lcb, o.la, o.lidx, o.lsrc, o.lspan, o.lthen = cb, a, idx, src, span, then
	t.c.Sleep(prof.ShmLatency+sim.BytesTime(len(src), prof.ShmByteTime), o.lPutFn)
}

// putRunC is putRun in continuation-passing style. Remote PUTs stay
// asynchronous under the fence; watchPut (already kernel-callback
// based) is shared with the blocking path. As with GETs, the eager and
// rendezvous fall-throughs are methods so the cache-hit path does not
// allocate them.
func (t *Thread) putRunC(a *SharedArray, idx int64, src []byte, then func()) {
	prof := t.rt.cfg.Profile
	size := len(src)
	rn := a.l.NodeOf(idx)
	start := t.Now()

	if rn == t.ns.id {
		if cb, ok := t.localCBFast(a); ok {
			t.localPutDoC(cb, a, idx, src, start, then)
			return
		}
		t.localCBC(a, func(cb *svd.ControlBlock) { t.localPutDoC(cb, a, idx, src, start, then) })
		return
	}

	off := a.l.ChunkOffset(idx)
	span := t.rt.tel.StartSpan("put", t.id, t.ns.id, start)
	span.SetBytes(size)
	t.rt.cfg.Trace.Begin(t.id, trace.StatePut, start)
	o := t.ops()
	o.pa, o.prn, o.poff, o.psrc, o.pspan, o.pstart, o.pthen = a, rn, off, src, span, start, then

	if t.ns.cache != nil && t.rt.putCache {
		o.pt0 = t.Now()
		t.c.Sleep(prof.CacheLookupCost, o.pLookupFn)
		return
	}
	t.putSlowC(a, rn, off, src, span, o.pFinishFn)
}

// putEagerC is the eager branch of the blocking putRun fall-through.
func (t *Thread) putEagerC(a *SharedArray, rn int, off int64, src []byte, wantAddr bool, span *telemetry.Span, finish func()) {
	prof := t.rt.cfg.Profile
	span.SetProto("eager")
	t0 := t.Now()
	t.c.Sleep(sim.BytesTime(len(src), prof.CopyByteTime), func() {
		span.Phase(telemetry.PhaseCopy, t0, t.Now())
		data := append([]byte(nil), src...)
		t.fence.Add(1)
		t.rt.M.SendAMSpanC(t.c, t.ns.id, rn, hPutReq,
			&putReq{H: a.h, Off: off, WantAddr: wantAddr, Fence: t.fence}, data, 0, span, finish)
	})
}

// putSlowC is the blocking putRun's fall-through after a failed (or
// absent) PUT-cache attempt.
func (t *Thread) putSlowC(a *SharedArray, rn int, off int64, src []byte, span *telemetry.Span, finish func()) {
	prof := t.rt.cfg.Profile
	size := len(src)
	if size <= prof.EagerMax || !prof.SupportsRDMA {
		t.putEagerC(a, rn, off, src, t.ns.cache != nil, span, finish)
		return
	}
	span.SetProto("rendezvous")
	t.rendezvousC(a, rn, size, span, func(res rtrResult) {
		if !res.ok {
			t.rt.tel.Add("xlupc_put_fallbacks_total", `reason="pin_refused"`, 1)
			t.putEagerC(a, rn, off, src, false, span, finish)
			return
		}
		data := append([]byte(nil), src...)
		t.rt.M.RDMAPutSpanC(t.c, t.ns.id, rn, res.base, res.base+mem.Addr(off), data, res.epoch, span,
			func(remote *sim.Completion) {
				t.fence.Add(1)
				t.watchPut(remote, a, rn, off, data, span, nil)
				finish()
			})
	})
}

// healStaleC is healStale in continuation-passing style; then receives
// false when the run is aborting under CrashFail.
func (t *Thread) healStaleC(rn int, ep uint32, op string, span *telemetry.Span, then func(ok bool)) {
	if t.rt.staleAbort(rn, ep, op, t.Now()) {
		then(false)
		return
	}
	t0 := t.Now()
	n := t.ns.cache.InvalidateNode(int32(rn))
	fin := func() {
		span.Phase(telemetry.PhaseEpochRecovery, t0, t.Now())
		t.rt.staleInvalidated += int64(n)
		t.rt.tel.Add("xlupc_stale_recoveries_total", `op="`+op+`"`, 1)
		t.rt.recordCacheInval(t.ns.id, rn, uint64(ep), n)
		then(true)
	}
	if n > 0 {
		t.c.Sleep(sim.Time(n)*t.rt.cfg.Profile.CacheLookupCost, fin)
		return
	}
	fin()
}

// --- Split-phase operations (mirror nbio.go) ---------------------------

// NbGetC is Thread.NbGet in continuation-passing style.
func (t *Thread) NbGetC(dst []byte, r Ref, then func(h Handle)) {
	es := int64(r.A.l.ElemSize)
	if int64(len(dst))%es != 0 {
		panic("core: NbGet length not a multiple of element size")
	}
	n := int64(len(dst)) / es
	if n == 0 {
		then(Handle{})
		return
	}
	r.A.check(r.Idx + n - 1)
	op := t.newNbOp()
	if r.A.l.ContigRun(r.Idx) >= n {
		t.nbGetRunC(op, r.A, r.Idx, dst, func() { t.nbIssued(op, then) })
		return
	}
	t.nbGetLoopC(op, dst, r, es, n, then)
}

// nbGetLoopC is the multi-run driver of NbGetC, outlined (like
// getBulkLoopC) so its escaping loop captures are not charged to the
// single-run fast path.
func (t *Thread) nbGetLoopC(op *nbOp, dst []byte, r Ref, es, n int64, then func(h Handle)) {
	idx, off := r.Idx, int64(0)
	sim.Loop(func(next func()) {
		if n == 0 {
			t.nbIssued(op, then)
			return
		}
		run := r.A.l.ContigRun(idx)
		if run > n {
			run = n
		}
		lo, hi, i0 := off*es, (off+run)*es, idx
		idx += run
		off += run
		n -= run
		t.nbGetRunC(op, r.A, i0, dst[lo:hi], next)
	})
}

// nbIssued finishes a split-phase issue: hand out a live handle, or
// free the descriptor when every run completed locally (the data is
// already in place).
func (t *Thread) nbIssued(op *nbOp, then func(h Handle)) {
	if len(op.subs) == 0 {
		t.freeNbOp(op)
		then(Handle{})
		return
	}
	t.nbOut = append(t.nbOut, op)
	then(Handle{op: op, gen: op.gen})
}

// NbPutC is Thread.NbPut in continuation-passing style.
func (t *Thread) NbPutC(r Ref, src []byte, then func(h Handle)) {
	es := int64(r.A.l.ElemSize)
	if int64(len(src))%es != 0 {
		panic("core: NbPut length not a multiple of element size")
	}
	n := int64(len(src)) / es
	if n == 0 {
		then(Handle{})
		return
	}
	r.A.check(r.Idx + n - 1)
	op := t.newNbOp()
	if r.A.l.ContigRun(r.Idx) >= n {
		t.nbPutRunC(op, r.A, r.Idx, src, func() { t.nbIssued(op, then) })
		return
	}
	t.nbPutLoopC(op, src, r, es, n, then)
}

// nbPutLoopC is nbGetLoopC for split-phase PUTs.
func (t *Thread) nbPutLoopC(op *nbOp, src []byte, r Ref, es, n int64, then func(h Handle)) {
	idx, off := r.Idx, int64(0)
	sim.Loop(func(next func()) {
		if n == 0 {
			t.nbIssued(op, then)
			return
		}
		run := r.A.l.ContigRun(idx)
		if run > n {
			run = n
		}
		lo, hi, i0 := off*es, (off+run)*es, idx
		idx += run
		off += run
		n -= run
		t.nbPutRunC(op, r.A, i0, src[lo:hi], next)
	})
}

// SyncC is Thread.Sync in continuation-passing style.
func (t *Thread) SyncC(h Handle, then func()) {
	op := h.op
	if op == nil || op.gen != h.gen || op.retired {
		then()
		return
	}
	t.rt.M.FlushCoalescedC(t.c, t.ns.id, func() {
		t.retireC(op, func() {
			for i, o := range t.nbOut {
				if o == op {
					t.nbOut = append(t.nbOut[:i], t.nbOut[i+1:]...)
					break
				}
			}
			t.freeNbOp(op)
			then()
		})
	})
}

// SyncAllC is Thread.SyncAll in continuation-passing style.
func (t *Thread) SyncAllC(then func()) {
	if len(t.nbOut) == 0 {
		then()
		return
	}
	t.rt.M.FlushCoalescedC(t.c, t.ns.id, func() {
		sim.Loop(func(next func()) {
			if len(t.nbOut) == 0 {
				then()
				return
			}
			op := t.nbOut[0]
			t.nbOut[0] = nil
			t.nbOut = t.nbOut[1:]
			t.retireC(op, func() {
				t.freeNbOp(op)
				next()
			})
		})
	})
}

// retireC is retire in continuation-passing style: the handle's
// sub-operations retire in issue order, waiting on each completion and
// running its retire work.
func (t *Thread) retireC(op *nbOp, then func()) {
	if op.retired {
		then()
		return
	}
	op.retired = true
	i := 0
	sim.Loop(func(next func()) {
		if i == len(op.subs) {
			then()
			return
		}
		sub := op.subs[i]
		i++
		fin := func() {
			if sub.finC != nil {
				sub.finC(next)
				return
			}
			if sub.fin != nil {
				sub.fin()
			}
			next()
		}
		if sub.done != nil {
			sub.done.WaitC(t.c, func(any) { fin() })
			return
		}
		fin()
	})
}

// nbGetRunC is nbGetRun in continuation-passing style; the sub's
// retire work is registered as finC so Sync's NACK fallbacks run in
// continuation-passing style too.
func (t *Thread) nbGetRunC(op *nbOp, a *SharedArray, idx int64, dst []byte, then func()) {
	prof := t.rt.cfg.Profile
	size := len(dst)
	rn := a.l.NodeOf(idx)
	start := t.Now()

	if rn == t.ns.id {
		t.localCBC(a, func(cb *svd.ControlBlock) {
			span := t.rt.tel.StartSpan("get", t.id, t.ns.id, start)
			span.SetProto("local")
			span.SetBytes(size)
			t.c.Sleep(prof.ShmLatency+sim.BytesTime(size, prof.ShmByteTime), func() {
				t.ns.tn.Mem.Read(dst, cb.LocalBase+mem.Addr(a.l.ChunkOffset(idx)))
				span.Finish(t.Now())
				t.localGets++
				then()
			})
		})
		return
	}

	if size > prof.EagerMax && prof.SupportsRDMA {
		t.getRunC(a, idx, dst, then)
		return
	}

	off := a.l.ChunkOffset(idx)
	span := t.rt.tel.StartSpan("get", t.id, t.ns.id, start)
	span.SetBytes(size)
	finish := func(fin func()) {
		span.Finish(t.Now())
		t.gets++
		t.getTime += t.Now() - start
		fin()
	}

	issueEager := func() {
		span.SetProto("eager")
		done := sim.NewCompletion(t.rt.K, "get")
		t.rt.M.SendAMCoalescedC(t.c, t.ns.id, rn, hGetReq,
			&getReq{H: a.h, Off: off, Size: size, WantAddr: t.ns.cache != nil, Done: done}, nil, 0, span,
			func() {
				op.subs = append(op.subs, nbSub{done: done, finC: func(fin func()) {
					copy(dst, done.Bytes())
					t.rt.K.Recycle(done)
					finish(fin)
				}})
				then()
			})
	}

	if t.ns.cache != nil {
		t0 := t.Now()
		t.c.Sleep(prof.CacheLookupCost, func() {
			span.Phase(telemetry.PhaseCacheLookup, t0, t.Now())
			if base, ep, hit := t.ns.cache.LookupEpoch(cacheKey(a.h, rn)); hit {
				span.SetProto("rdma")
				t.rt.M.RDMAGetStartC(t.c, t.ns.id, rn, base, base+mem.Addr(off), dst, size, ep, span,
					func(res *sim.Completion) {
						op.subs = append(op.subs, nbSub{done: res, finC: func(fin func()) {
							val := res.Value()
							data := res.Bytes()
							t.rt.K.Recycle(res)
							if nk, nack := val.(transport.Nack); nack {
								// Redo the run over the eager path — we are
								// already inside Sync, so the retire itself
								// carries the continuation.
								if nk.Stale {
									t.healStaleC(rn, nk.Epoch, "get", span, func(cont bool) {
										if !cont {
											finish(fin)
											return
										}
										t.rt.tel.Add("xlupc_get_fallbacks_total", `reason="stale_epoch"`, 1)
										span.SetProto("eager")
										t.eagerGetC(a, rn, off, dst, span, func() { finish(fin) })
									})
									return
								}
								t.ns.cache.Remove(cacheKey(a.h, rn))
								t.rt.tel.Add("xlupc_get_fallbacks_total", `reason="nack"`, 1)
								span.SetProto("eager")
								t.eagerGetC(a, rn, off, dst, span, func() { finish(fin) })
								return
							}
							copy(dst, data)
							finish(fin)
						}})
						then()
					})
				return
			}
			issueEager()
		})
		return
	}
	issueEager()
}

// nbPutRunC is nbPutRun in continuation-passing style.
func (t *Thread) nbPutRunC(op *nbOp, a *SharedArray, idx int64, src []byte, then func()) {
	prof := t.rt.cfg.Profile
	size := len(src)
	rn := a.l.NodeOf(idx)
	start := t.Now()

	if rn == t.ns.id {
		t.localCBC(a, func(cb *svd.ControlBlock) {
			span := t.rt.tel.StartSpan("put", t.id, t.ns.id, start)
			span.SetProto("local")
			span.SetBytes(size)
			t.c.Sleep(prof.ShmLatency+sim.BytesTime(size, prof.ShmByteTime), func() {
				t.ns.tn.Mem.Write(cb.LocalBase+mem.Addr(a.l.ChunkOffset(idx)), src)
				span.Finish(t.Now())
				t.localPuts++
				then()
			})
		})
		return
	}

	if size > prof.EagerMax && prof.SupportsRDMA {
		t.putRunC(a, idx, src, then) // async under the fence, as always
		return
	}

	off := a.l.ChunkOffset(idx)
	span := t.rt.tel.StartSpan("put", t.id, t.ns.id, start)
	span.SetBytes(size)
	done := sim.NewCompletion(t.rt.K, "nb-put")
	finC := func(fin func()) {
		t.rt.K.Recycle(done)
		span.Finish(t.Now())
		t.puts++
		t.putTime += t.Now() - start
		fin()
	}

	issueEager := func() {
		span.SetProto("eager")
		t0 := t.Now()
		t.c.Sleep(sim.BytesTime(size, prof.CopyByteTime), func() {
			span.Phase(telemetry.PhaseCopy, t0, t.Now())
			data := append([]byte(nil), src...)
			t.fence.Add(1)
			t.rt.M.SendAMCoalescedC(t.c, t.ns.id, rn, hPutReq,
				&putReq{H: a.h, Off: off, WantAddr: t.ns.cache != nil, Fence: t.fence, Done: done}, data, 0, span,
				func() {
					op.subs = append(op.subs, nbSub{done: done, finC: finC})
					then()
				})
		})
	}

	if t.ns.cache != nil && t.rt.putCache {
		t0 := t.Now()
		t.c.Sleep(prof.CacheLookupCost, func() {
			span.Phase(telemetry.PhaseCacheLookup, t0, t.Now())
			if base, ep, hit := t.ns.cache.LookupEpoch(cacheKey(a.h, rn)); hit {
				span.SetProto("rdma")
				data := append([]byte(nil), src...)
				t.rt.M.RDMAPutStartC(t.c, t.ns.id, rn, base, base+mem.Addr(off), data, ep, span,
					func(remote *sim.Completion) {
						t.fence.Add(1)
						t.watchPut(remote, a, rn, off, data, span, done)
						op.subs = append(op.subs, nbSub{done: done, finC: finC})
						then()
					})
				return
			}
			issueEager()
		})
		return
	}
	issueEager()
}

// --- Barrier (mirror barrier.go) ---------------------------------------

// BarrierC is Thread.Barrier in continuation-passing style.
func (t *Thread) BarrierC(then func()) {
	t.FenceC(func() {
		span := t.rt.tel.StartSpan("barrier", t.id, t.ns.id, t.Now())
		t.rt.cfg.Trace.Begin(t.id, trace.StateBarrier, t.Now())
		fin := func() {
			t.rt.cfg.Trace.End(t.id, t.Now())
			span.Finish(t.Now())
			then()
		}
		nb := t.ns.barrier
		tpn := t.rt.cfg.ThreadsPerNode()
		t.c.Sleep(localBarrierCost, func() {
			nb.arrived++
			if nb.arrived < tpn {
				if nb.release == nil {
					nb.release = sim.NewCompletion(t.rt.K, "barrier-release")
				}
				nb.release.WaitC(t.c, func(any) { fin() })
				return
			}
			// Last arriver is the representative: run the inter-node phase.
			epoch := nb.epoch
			after := func() {
				rel := nb.release
				nb.release = nil
				nb.arrived = 0
				nb.epoch++
				if rel != nil {
					rel.Complete(nil)
				}
				fin()
			}
			if t.rt.cfg.FlatBarrier {
				nb.flatC(t.c, epoch, after)
			} else {
				nb.disseminateC(t.c, epoch, after)
			}
		})
	})
}

// disseminateC is disseminate in continuation-passing style.
func (nb *nodeBarrier) disseminateC(ct *sim.Cont, epoch int64, then func()) {
	n := nb.rt.cfg.Nodes
	dist := 1
	sim.Loop(func(next func()) {
		if dist >= n {
			then()
			return
		}
		d := dist
		dist *= 2
		partner := (nb.ns.id + d) % n
		nb.rt.M.SendAMSpanC(ct, nb.ns.id, partner, hBarrier,
			&barrierMsg{Epoch: epoch, Round: d}, nil, 0, nil, func() {
				key := dissKey{epoch: epoch, round: d}
				if nb.recv[key] {
					delete(nb.recv, key)
					next()
					return
				}
				c := sim.NewCompletion(nb.rt.K, "barrier-round")
				nb.waiters[key] = c
				c.WaitC(ct, func(any) {
					delete(nb.waiters, key)
					next()
				})
			})
	})
}

// flatC is flat in continuation-passing style.
func (nb *nodeBarrier) flatC(ct *sim.Cont, epoch int64, then func()) {
	n := nb.rt.cfg.Nodes
	if nb.ns.id != 0 {
		nb.rt.M.SendAMSpanC(ct, nb.ns.id, 0, hBarrier,
			&barrierMsg{Epoch: epoch, Round: flatArrive}, nil, 0, nil, func() {
				nb.awaitC(ct, dissKey{epoch: epoch, round: flatRelease}, then)
			})
		return
	}
	// Master: collect n-1 arrivals, then release everyone.
	need := n - 1
	release := func() {
		delete(nb.flatCount, epoch)
		dst := 1
		sim.Loop(func(next func()) {
			if dst >= n {
				then()
				return
			}
			d := dst
			dst++
			nb.rt.M.SendAMSpanC(ct, 0, d, hBarrier,
				&barrierMsg{Epoch: epoch, Round: flatRelease}, nil, 0, nil, next)
		})
	}
	if nb.flatCount[epoch] < need {
		c := sim.NewCompletion(nb.rt.K, "flat-barrier")
		nb.flatWait = c
		nb.flatWaitEpoch = epoch
		nb.flatTarget = need
		c.WaitC(ct, func(any) { release() })
		return
	}
	release()
}

// awaitC is await in continuation-passing style.
func (nb *nodeBarrier) awaitC(ct *sim.Cont, key dissKey, then func()) {
	if nb.recv[key] {
		delete(nb.recv, key)
		then()
		return
	}
	c := sim.NewCompletion(nb.rt.K, "barrier-round")
	nb.waiters[key] = c
	c.WaitC(ct, func(any) {
		delete(nb.waiters, key)
		then()
	})
}

// --- Collective allocation (mirror alloc.go) ---------------------------

// AllAllocC is Thread.AllAlloc in continuation-passing style.
func (t *Thread) AllAllocC(name string, numElems int64, elemSize int, block int64, then func(a *SharedArray)) {
	t.AllAllocKindC(svd.KindArray, name, numElems, elemSize, block, then)
}

// AllAllocKindC is Thread.AllAllocKind in continuation-passing style.
func (t *Thread) AllAllocKindC(kind svd.Kind, name string, numElems int64, elemSize int, block int64, then func(a *SharedArray)) {
	if numElems <= 0 || elemSize <= 0 {
		panic(fmt.Sprintf("core: AllAlloc(%s) with nonpositive size", name))
	}
	span := t.rt.tel.StartSpan("alloc", t.id, t.ns.id, t.Now())
	span.SetProto("collective")
	t.BarrierC(func() {
		ns := t.ns
		closing := func() {
			t.BarrierC(func() {
				a := ns.collective.(*SharedArray)
				span.Finish(t.Now())
				then(a)
			})
		}
		if t.isNodeRep() {
			l := t.rt.layout(elemSize, block, numElems)
			idx := ns.dir.NextIndex(svd.AllPartition)
			h := svd.Handle{Part: svd.AllPartition, Index: idx}
			t.ComputeC(allocCPUCost, func() {
				ns.installArray(h, kind, name, l)
				ns.collective = &SharedArray{rt: t.rt, h: h, l: l, name: name}
				closing()
			})
			return
		}
		closing()
	})
}

// FreeC is Thread.Free in continuation-passing style: fence, broadcast
// the free request, drop the local replica (cache invalidation, unpin,
// allocator free), then wait for every peer's acknowledgement.
func (t *Thread) FreeC(a *SharedArray, then func()) {
	t.FenceC(func() {
		span := t.rt.tel.StartSpan("free", t.id, t.ns.id, t.Now())
		acks := sim.NewCounter(t.rt.K, "free-acks", t.rt.cfg.Nodes-1)
		req := &freeReq{H: a.h, Acks: acks}
		n := 0
		sim.Loop(func(next func()) {
			for n < t.rt.cfg.Nodes && n == t.ns.id {
				n++
			}
			if n == t.rt.cfg.Nodes {
				t.ns.dropObjectC(t.c, a.h, func() {
					acks.WaitC(t.c, func() {
						span.Finish(t.Now())
						then()
					})
				})
				return
			}
			dst := n
			n++
			t.rt.M.SendAMSpanC(t.c, t.ns.id, dst, hFreeReq, req, nil, 0, nil, next)
		})
	})
}

// dropObjectC is nodeState.dropObject in continuation-passing style
// (remote free requests still arrive on proc-based dispatchers and use
// the blocking twin).
func (ns *nodeState) dropObjectC(ct *sim.Cont, h svd.Handle, then func()) {
	afterInval := func() {
		cb, ok := ns.dir.LookupAny(h)
		if !ok {
			panic(fmt.Sprintf("core: node %d freeing unknown object %v", ns.id, h))
		}
		finish := func() {
			ns.dir.MarkFreed(h)
			then()
		}
		if cb.HasLocal {
			cost := ns.tn.Pins.Unpin(cb.LocalBase, ns.rt.K.Now())
			ct.Sleep(cost, func() {
				ns.tn.Mem.Free(cb.LocalBase)
				finish()
			})
			return
		}
		finish()
	}
	if ns.cache != nil {
		n := ns.cache.InvalidateHandle(h.Key())
		ct.Sleep(sim.Time(n)*ns.rt.cfg.Profile.CacheLookupCost, func() {
			ns.rt.recordCacheInval(ns.id, -1, h.Key(), n)
			afterInval()
		})
		return
	}
	afterInval()
}
