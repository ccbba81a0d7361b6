package transport

// Free-lists for the per-operation descriptor structs on the hot
// paths: active messages and RDMA work requests, one list each. Pooling
// is enabled only while the reliable-delivery layer is off (m.rel == nil): the
// reliable layer retains injected envelopes for retransmission and its
// fault injector can deliver the same pointer twice, so a descriptor's
// lifetime is unbounded there. Without it every injected object is
// delivered exactly once and consumed by exactly one service chain,
// whose end is the single safe recycling point. The gate is checked on
// both alloc and free, so enabling chaos mid-setup simply strands the
// pool (never corrupts it) — EnableChaos must in any case run before
// traffic starts.
type pools struct {
	msgs []*Msg
	dmas []*dmaOp

	// Initiator-side send records (see txOp). These hold no injected
	// object at rest, so they are safe to pool even under the reliable
	// layer.
	txops []*txOp
}

// Retain marks the message as requeued by its handler: the dispatcher
// must not recycle it after the handler returns, because the handler
// scheduled it for redelivery (the SVD-miss retry path). The flag is
// consumed by the dispatcher, so the message is again eligible for
// recycling after its next service.
func (m *Msg) Retain() { m.retained = true }

func (m *Machine) newMsg() *Msg {
	if m.rel == nil {
		if n := len(m.pool.msgs); n > 0 {
			msg := m.pool.msgs[n-1]
			m.pool.msgs = m.pool.msgs[:n-1]
			return msg
		}
	}
	return &Msg{}
}

// freeMsg recycles a fully served message. Payload and Meta escape into
// completion values and handler state routinely; only the Msg struct
// itself is pooled, so those references stay valid.
func (m *Machine) freeMsg(msg *Msg) {
	if m.rel != nil {
		return
	}
	*msg = Msg{}
	m.pool.msgs = append(m.pool.msgs, msg)
}

func (m *Machine) newDMAOp() *dmaOp {
	if m.rel == nil {
		if n := len(m.pool.dmas); n > 0 {
			op := m.pool.dmas[n-1]
			m.pool.dmas = m.pool.dmas[:n-1]
			return op
		}
	}
	return &dmaOp{}
}

func (m *Machine) freeDMAOp(op *dmaOp) {
	if m.rel != nil {
		return
	}
	*op = dmaOp{}
	m.pool.dmas = append(m.pool.dmas, op)
}
