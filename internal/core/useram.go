package core

// User-level active messages: the registered-handler hook that lets a
// layer above the runtime (internal/kv) ship its own request/reply
// protocols over the same machinery the runtime's GET/PUT AMs use —
// SVD resolution, base-address piggybacking
// into the remote address cache, coalescing-aware reply framing and
// span phase attribution all come for free. A handler is a ladder of
// steps on the target node's AM dispatcher context, like the runtime's
// own handlers: it waits only through the context's ...C primitives
// (handler-side sleeps, resource acquisitions and local accesses cost
// the event a thread's would, and no coroutine switch), and hands the
// reply payload to the continuation it is given; request arguments
// travel as two uint64s in the envelope, anything larger belongs in
// shared memory.

import (
	"fmt"

	"xlupc/internal/mem"
	"xlupc/internal/sim"
	"xlupc/internal/svd"
	"xlupc/internal/telemetry"
	"xlupc/internal/transport"
)

// UserHandlerID names one registered user-AM handler. IDs are a small
// fixed space: a subsystem claims its IDs at startup, before any
// traffic, and a clash panics loudly.
type UserHandlerID uint8

// maxUserHandlers bounds the user handler table.
const maxUserHandlers = 8

// UserHandler executes one user AM at the target node, in context c,
// and passes the reply payload to reply as its last act. The payload
// must be freshly allocated (or immutable): concurrent AMs at one node
// interleave at their waits, so a shared scratch buffer would tear
// replies. State the handler keeps across its waits belongs in a record
// of its own, not in a closure per message.
type UserHandler func(c *UserCtx, reply func(payload []byte))

// userReq is the user-AM request envelope. A and B are the operation's
// arguments; H anchors SVD resolution and address piggybacking.
type userReq struct {
	ID       UserHandlerID
	H        svd.Handle
	A, B     uint64
	WantAddr bool            // piggyback the base address on the reply
	Done     *sim.Completion // initiator-side; completed by the reply
}

// HandleUser registers h under id for this run. Must be called before
// any traffic uses the id — from a thread body ahead of its first
// collective is early enough, since registration is host-side and
// costs no virtual time.
func (rt *Runtime) HandleUser(id UserHandlerID, h UserHandler) {
	if int(id) >= maxUserHandlers {
		panic(fmt.Sprintf("core: user handler id %d out of range (max %d)", id, maxUserHandlers-1))
	}
	if rt.userHandlers[id] != nil {
		panic(fmt.Sprintf("core: duplicate user handler registration for id %d", id))
	}
	rt.userHandlers[id] = h
}

// UserCtx is the execution context a UserHandler receives: the target
// node's state, the dispatcher context serving the request, and the
// resolved control block of the request's anchor object. A context
// serves one request at a time, and its UserCtx is the same value for
// every request it serves.
type UserCtx struct {
	x   *amCtx
	req *userReq

	// The local access in progress: where, and the caller's buffer.
	off int64
	buf []byte

	// The layout of the anchor lcb, built by the first ChunkOffset that
	// names it.
	l   Layout
	lcb *svd.ControlBlock
}

// Args returns the request's two argument words.
func (c *UserCtx) Args() (a, b uint64) { return c.req.A, c.req.B }

// SleepC advances the dispatcher context by d (models handler compute),
// then runs then.
func (c *UserCtx) SleepC(d sim.Duration, then func()) { c.x.ct.Sleep(d, then) }

// AcquireC takes r on the dispatcher context, then runs then.
func (c *UserCtx) AcquireC(r *sim.Resource, then func()) { r.AcquireCont(c.x.ct, then) }

// checkLocal bounds-checks a local access against the anchor's chunk.
func (c *UserCtx) checkLocal(off int64, n int) {
	if !c.x.cb.HasLocal {
		panic(fmt.Sprintf("core: user AM local access to %v on node %d, which owns no piece", c.x.cb.Handle, c.x.ns.id))
	}
	if off < 0 || off+int64(n) > int64(c.x.cb.LocalSize) {
		panic(fmt.Sprintf("core: user AM local access [%d,%d) outside %v chunk of %d bytes",
			off, off+int64(n), c.x.cb.Handle, c.x.cb.LocalSize))
	}
}

// ReadLocalC reads len(dst) bytes at byte offset off of the anchor
// object's local chunk, paying the same shared-memory cost a local
// thread access would, then runs then.
func (c *UserCtx) ReadLocalC(off int64, dst []byte, then func()) {
	c.local(off, dst, then, hcUserRead)
}

// WriteLocalC writes src at byte offset off of the anchor object's
// local chunk, then runs then.
func (c *UserCtx) WriteLocalC(off int64, src []byte, then func()) {
	c.local(off, src, then, hcUserWritten)
}

// local starts a local access of buf at off whose memory effect is step
// pc, once the shared-memory cost is paid.
func (c *UserCtx) local(off int64, buf []byte, then func(), pc int) {
	c.checkLocal(off, len(buf))
	prof := c.x.rt.cfg.Profile
	c.x.ct.Park(sim.Func(then), 0)
	c.off, c.buf = off, buf
	c.x.ct.Sleep(prof.ShmLatency+sim.BytesTime(len(buf), prof.ShmByteTime), c.x.after(pc))
}

func (x *amCtx) userRead() {
	c := &x.user
	x.ns.tn.Mem.Read(c.buf, x.cb.LocalBase+mem.Addr(c.off))
	c.buf = nil
	x.ct.Resume()
}

func (x *amCtx) userWritten() {
	c := &x.user
	x.ns.tn.Mem.Write(x.cb.LocalBase+mem.Addr(c.off), c.buf)
	c.buf = nil
	x.ct.Resume()
}

// NodeLocal returns the node-scoped singleton under key, building it
// on first use — per-node locks and counters for user protocols.
func (c *UserCtx) NodeLocal(key string, build func(k *sim.Kernel) any) any {
	return c.x.ns.nodeLocal(key, build)
}

// ChunkOffset translates a global element index of the anchor object
// into a byte offset inside this node's chunk, for ReadLocalC and
// WriteLocalC. Handlers work in the same global indices initiators use;
// the layout arithmetic (block-cyclic distribution, per-thread regions)
// lives here. A context keeps the layout of the last anchor it
// translated for, so a handler's probe walk over one array builds it
// once.
func (c *UserCtx) ChunkOffset(idx int64) int64 {
	if cb := c.x.cb; c.lcb != cb {
		c.l, c.lcb = c.x.rt.layout(cb.ElemSize, cb.Block, cb.NumElems), cb
	}
	return c.l.ChunkOffset(idx)
}

func (ns *nodeState) nodeLocal(key string, build func(k *sim.Kernel) any) any {
	if ns.user == nil {
		ns.user = make(map[string]any)
	}
	v, ok := ns.user[key]
	if !ok {
		v = build(ns.rt.K)
		ns.user[key] = v
	}
	return v
}

// --- Target-side handlers ----------------------------------------------

// handleUserReq mirrors handleGetReq: resolve, optionally pin and
// advertise, run the user handler, and reply with its payload (paying
// the bounce-buffer copy cost the eager path always pays).
func (rt *Runtime) handleUserReq(ct *sim.Cont, n *transport.Node, msg *transport.Msg, then func()) {
	x := rt.serve(ct, n, msg, then)
	m := msg.Meta.(*userReq)
	x.translate(m.H, m.WantAddr, hcUserTranslated)
}

func (x *amCtx) userTranslated() {
	m := x.msg.Meta.(*userReq)
	h := x.rt.userHandlers[m.ID]
	if h == nil {
		panic(fmt.Sprintf("core: user AM for unregistered handler id %d", m.ID))
	}
	x.user.req = m
	if x.userReply == nil {
		x.userReply = x.userReplied
	}
	h(&x.user, x.userReply)
}

// userReplied is the reply continuation a user handler is given.
func (x *amCtx) userReplied(payload []byte) {
	x.payload, x.t0 = payload, x.rt.K.Now()
	x.ct.Sleep(sim.BytesTime(len(payload), x.rt.cfg.Profile.CopyByteTime), x.after(hcUserCopied))
}

func (x *amCtx) userCopied() {
	m, payload := x.msg.Meta.(*userReq), x.payload
	x.payload, x.user.req = nil, nil
	x.msg.Span.Phase(telemetry.PhaseCopy, x.t0, x.rt.K.Now())
	rep := reply{H: m.H, Base: x.base, Epoch: x.epoch, Done: m.Done}
	x.rt.hdr.user.Put(m)
	x.answer(rep, payload, 0)
}

// --- Initiator side ----------------------------------------------------

// CallAMC sends a user AM anchored at array a to node rn and, once the
// reply has arrived and its payload is copied into reply, runs then
// with the payload length. extra models the wire bytes of the
// operation's arguments beyond the fixed envelope. op labels the span.
func (t *Thread) CallAMC(a *SharedArray, rn int, id UserHandlerID, argA, argB uint64, extra int, reply []byte, op string, then func(n int)) {
	t.thenT = then
	t.park(pcThenN)
	t.span = t.rt.tel.StartSpan(op, t.id, t.ns.id, t.Now())
	t.span.SetProto("am")
	t.buf = reply
	t.done = sim.NewCompletion(t.rt.K, op)
	m := t.rt.hdr.user.Get()
	*m = userReq{ID: id, H: a.h, A: argA, B: argB, WantAddr: t.ns.cache != nil, Done: t.done}
	t.request(pcUserDone, rn, hUserReq, m, extra)
}

func (t *Thread) userDone() {
	t.n = copy(t.buf, t.done.Bytes())
	t.span.Finish(t.Now())
	t.buf, t.span = nil, nil
	t.reply()
}

// NodeLocal returns this thread's node-scoped singleton under key,
// building it on first use (see UserCtx.NodeLocal).
func (t *Thread) NodeLocal(key string, build func(k *sim.Kernel) any) any {
	return t.ns.nodeLocal(key, build)
}

// AcquireC takes r on the thread, then runs then.
func (t *Thread) AcquireC(r *sim.Resource, then func()) { r.AcquireCont(t.c, then) }
