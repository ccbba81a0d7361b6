package core

import "xlupc/internal/pool"

// headers recycles the protocol headers and the eager bounce buffers.
// Each has one retire site, the step that reads it last: a request
// header is put back by the target handler's answering step (a
// rendezvous request-to-send, which travels back as its own answer, by
// the initiator step that reads the answer), a reply by
// handleReply, an eager GET's data by the initiator step that copies it
// out, an eager PUT's by the handler step that writes it in place. Under
// reliable delivery this holds too: dedup serves a message once, and a
// retransmitted copy that still names a recycled header is discarded
// unread.
type headers struct {
	get    pool.Free[getReq]
	put    pool.Free[putReq]
	rts    pool.Free[rts]
	user   pool.Free[userReq]
	atomic pool.Free[atomicReq]
	reply  pool.Free[reply]
	watch  pool.Free[putWatch]
	bounce pool.Bytes
}

// newReply returns a pooled reply header holding r; handleReply puts it
// back.
func (rt *Runtime) newReply(r reply) *reply {
	p := rt.hdr.reply.Get()
	*p = r
	return p
}

// bounceCopy returns a pooled copy of b: the bounce buffer an eager PUT
// travels in.
func (rt *Runtime) bounceCopy(b []byte) []byte {
	c := rt.hdr.bounce.Get(len(b))
	copy(c, b)
	return c
}
