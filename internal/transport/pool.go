package transport

import "xlupc/internal/pool"

// Free-lists for the per-operation descriptor structs on the hot
// paths: active messages, RDMA work requests and send records. An
// injected message or descriptor is consumed by exactly one service
// chain, whose end is its single recycling point — with the reliable
// layer on too: a packet's copies carry their sequence header by value,
// dedup hands the inner object to its service chain once, and a
// retransmitted or duplicated copy that still names a recycled object
// is discarded unread.
type pools struct {
	msgs pool.Free[Msg]
	dmas pool.Free[dmaOp]

	// Initiator-side send records (see txOp). These hold no injected
	// object at rest.
	txops pool.Free[txOp]
}

// Retain marks the message as requeued by its handler: the dispatcher
// must not recycle it after the handler returns, because the handler
// scheduled it for redelivery (the SVD-miss retry path). The flag is
// consumed by the dispatcher, so the message is again eligible for
// recycling after its next service.
func (m *Msg) Retain() { m.retained = true }

func (m *Machine) newMsg() *Msg { return m.pool.msgs.Get() }

// freeMsg recycles a fully served message. Payload and Meta escape into
// completion values and handler state routinely; only the Msg struct
// itself is pooled, so those references stay valid.
func (m *Machine) freeMsg(msg *Msg) {
	*msg = Msg{}
	m.pool.msgs.Put(msg)
}

func (m *Machine) newDMAOp() *dmaOp { return m.pool.dmas.Get() }

func (m *Machine) freeDMAOp(op *dmaOp) {
	*op = dmaOp{}
	m.pool.dmas.Put(op)
}
