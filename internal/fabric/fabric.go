package fabric

import (
	"fmt"

	"xlupc/internal/fault"
	"xlupc/internal/flight"
	"xlupc/internal/pool"
	"xlupc/internal/sim"
)

// WireModel carries the interconnect timing parameters.
type WireModel struct {
	BaseLatency sim.Time // fixed per-message wire latency
	HopLatency  sim.Time // additional latency per switch hop
	ByteTime    sim.Time // serialization cost, ps per byte
}

// Latency is the route latency between two nodes for the given
// topology (excluding serialization, which is charged at injection).
func (w WireModel) Latency(topo Topology, src, dst int) sim.Time {
	return w.BaseLatency + sim.Time(topo.Hops(src, dst))*w.HopLatency
}

// Serialize is the injection time of n bytes.
func (w WireModel) Serialize(n int) sim.Time { return sim.BytesTime(n, w.ByteTime) }

// Class separates the two arrival paths at a node: messages that need
// software handling (active messages) and descriptors the NIC's DMA
// engine services without CPU involvement (RDMA).
type Class int

const (
	ClassAM Class = iota
	ClassDMA
)

// Flight is the class's flight-recorder tag, whose String is its label
// everywhere a class is named (counters, errors, dumps).
func (c Class) Flight() flight.Class {
	if c == ClassDMA {
		return flight.ClassDMA
	}
	return flight.ClassAM
}

// Port is one node's attachment to the fabric.
type Port struct {
	// TX is the NIC injection port: a single engine all senders on
	// the node share. This is where the paper's "four threads
	// competing for the same network device" contention appears.
	TX *sim.Resource
	// AM is the arrival queue for active messages (serviced by a
	// software dispatcher that needs a CPU).
	AM *sim.Queue[any]
	// DMA is the arrival queue for RDMA descriptors (serviced by the
	// NIC's DMA engine with no CPU involvement).
	DMA *sim.Queue[any]
}

// Header is the link-level framing a packet carries beside its payload:
// the reliable layer's channel sequence number and sender epoch, which
// the receiver ACKs and dedups on, and whether the packet is itself an
// ACK. Corrupt is set by the fabric on a copy whose integrity check
// fails at the receiving NIC. The header travels by value in the
// fabric's own records, so a late or duplicated copy never reads sender
// state that has since been recycled. Unframed traffic carries the zero
// Header.
type Header struct {
	Seq     uint64
	Epoch   uint32
	Ack     bool
	Corrupt bool
}

// Fabric is the simulated interconnect instance.
type Fabric struct {
	k     *sim.Kernel
	topo  Topology
	wire  WireModel
	ports []*Port

	// Fault injection (nil = perfectly reliable wire).
	inj *fault.Injector
	// Delivery hook: when set, arrivals are handed to it instead of
	// being pushed onto the destination port's queues (the reliable
	// transport interposes here for seq/ACK/dedup handling).
	hook Hook

	// down[n], when the slice exists, is the end of node n's current
	// crash/restart window: packets arriving before it are dropped at
	// the dead NIC. Lazily allocated by SetDown so crash-free runs keep
	// a nil check as their only overhead.
	down []sim.Time

	// fr records every wire event; its counts are the hazards applied. Held
	// by value, so the run's only recorder allocation is its table.
	fr flight.Recorder

	// Accounting.
	messages int64
	bytes    int64

	// Free lists for the per-packet event records (see arrival/txSer):
	// the wire's two scheduled events per packet — serialization and
	// delivery — run pre-bound funcs on pooled records instead of
	// allocating closures, so the fabric adds no per-packet garbage.
	apool pool.Free[arrival]
	spool pool.Free[txSer]
}

// New builds a fabric over the given topology and wire model.
func New(k *sim.Kernel, topo Topology, wire WireModel) *Fabric {
	f := &Fabric{k: k, topo: topo, wire: wire, fr: *flight.New(topo.Nodes())}
	f.ports = make([]*Port, topo.Nodes())
	for i := range f.ports {
		f.ports[i] = &Port{
			TX:  sim.NewResourceIdx(k, "nic", i, ".tx", 1),
			AM:  sim.NewQueueIdx[any](k, "nic", i, ".am"),
			DMA: sim.NewQueueIdx[any](k, "nic", i, ".dma"),
		}
	}
	return f
}

// Port returns node n's attachment.
func (f *Fabric) Port(n int) *Port { return f.ports[n] }

// Messages and Bytes report traffic totals.
func (f *Fabric) Messages() int64 { return f.messages }
func (f *Fabric) Bytes() int64    { return f.bytes }

// SetInjector installs (or, with nil, removes) a fault injector.
// Packets are keyed by their injection ordinal — the value of the
// fabric's message counter at Inject time — so retransmissions face
// independent hazards, like fresh packets on a real lossy wire.
func (f *Fabric) SetInjector(inj *fault.Injector) { f.inj = inj }

// Hook receives one physical arrival: the packet m sent from src, with
// its header.
type Hook func(src, dst int, class Class, h Header, m any)

// SetDeliveryHook routes every arrival through fn instead of the
// destination port's AM/DMA queues. The reliable transport installs
// its seq/ACK/dedup handling here; fn runs in kernel context at the
// arrival time and must not block. Without a hook a corrupted arrival
// is discarded at the receiving NIC, as its checksum demands: nothing
// retransmits it.
func (f *Fabric) SetDeliveryHook(fn Hook) { f.hook = fn }

// Recorder returns the fabric's flight recorder, which the layers
// above record into too: one per run, sized to the topology.
func (f *Fabric) Recorder() *flight.Recorder { return &f.fr }

// record flight-records one event of the packet seq (src -> dst) at
// the receiving or, for a send, the sending node.
func (f *Fabric) record(node int, k flight.Kind, seq uint64, src, dst int, class Class, arg int64) {
	f.fr.Record(node, flight.Event{
		T: f.k.Now(), Kind: k, Class: class.Flight(),
		Src: int32(src), Dst: int32(dst), Seq: seq, Arg: arg,
	})
}

// SetDown marks node n's NIC unreachable until the given time: every
// packet arriving before it is dropped (the node is mid-restart). The
// crash orchestrator calls this at each crash instant.
func (f *Fabric) SetDown(n int, until sim.Time) {
	if f.down == nil {
		f.down = make([]sim.Time, len(f.ports))
	}
	f.down[n] = until
}

// DownUntil reports the end of node n's current down window (0, i.e.
// the past, when the node was never crashed). The reliable layer
// consults it to park retransmits toward a dead peer.
func (f *Fabric) DownUntil(n int) sim.Time {
	if f.down == nil {
		return 0
	}
	return f.down[n]
}

// InjectC sends a message of size wire bytes from src to dst, arriving
// on dst's queue for the given class. The caller must already hold
// src's TX port and keep holding it through done: InjectC charges the
// serialization time by scheduling done after it (at once for a
// zero-width message), then delivery after the route latency. done
// receives the nominal arrival time.
//
// Sending to the local node is a protocol bug — co-located threads
// communicate through shared memory, never the NIC — and panics.
func (f *Fabric) InjectC(src, dst int, size int, class Class, m any, done func(arrive sim.Time)) {
	f.InjectHdrC(src, dst, size, class, Header{}, m, done)
}

// InjectHdrC is InjectC for a framed packet: h travels with m.
func (f *Fabric) InjectHdrC(src, dst int, size int, class Class, h Header, m any, done func(arrive sim.Time)) {
	if src == dst {
		panic(fmt.Sprintf("fabric: node %d sending to itself", src))
	}
	f.messages++
	f.bytes += int64(size)
	seq := uint64(f.messages)
	f.record(src, flight.KindSend, seq, src, dst, class, int64(size))
	ser := f.wire.Serialize(size)
	if ser <= 0 { // zero-width message: no serialization event
		done(f.deliver(seq, src, dst, size, class, h, m))
		return
	}
	s := f.newTxSer()
	s.seq, s.src, s.dst, s.size, s.class, s.h, s.m, s.done = seq, src, dst, size, class, h, m, done
	f.k.After(ser, s.run)
}

// txSer is a pooled serialization-in-progress record: the event
// scheduled at injection runs its pre-bound run func, which hands the
// packet to deliver and invokes the sender's done callback — the
// closure-free form of InjectC's serialization step.
type txSer struct {
	f     *Fabric
	seq   uint64
	src   int
	dst   int
	size  int
	class Class
	h     Header
	m     any
	done  func(arrive sim.Time)
	run   func() // pre-bound to this record, built once per record
}

func (f *Fabric) newTxSer() *txSer {
	s := f.spool.Get()
	if s.f == nil {
		s.f, s.run = f, s.fire
	}
	return s
}

func (s *txSer) fire() {
	f := s.f
	seq, src, dst, size, class, h, m, done := s.seq, s.src, s.dst, s.size, s.class, s.h, s.m, s.done
	s.m, s.done = nil, nil
	f.spool.Put(s)
	done(f.deliver(seq, src, dst, size, class, h, m))
}

// deliver applies any configured hazards to the packet and schedules
// its arrival at dst after the route latency. It returns the nominal
// (hazard-free) arrival time: senders pace themselves by it, and a
// real sender cannot observe a drop or delay downstream of its NIC.
func (f *Fabric) deliver(seq uint64, src, dst, size int, class Class, h Header, m any) sim.Time {
	arrive := f.k.Now() + f.wire.Latency(f.topo, src, dst)
	if f.inj == nil {
		f.arriveAt(arrive, seq, src, dst, size, class, h, m)
		return arrive
	}
	d := f.inj.Decide(seq)
	if d.Drop {
		f.record(dst, flight.KindDrop, seq, src, dst, class, int64(size))
		return arrive
	}
	at := arrive
	if d.Delay > 0 {
		at += d.Delay
		f.record(dst, flight.KindDelay, seq, src, dst, class, int64(d.Delay))
	}
	if clear := f.inj.StallClear(dst, at); clear > at {
		f.record(dst, flight.KindStall, seq, src, dst, class, int64(clear-at))
		at = clear
	}
	if d.Corrupt {
		f.record(dst, flight.KindCorrupt, seq, src, dst, class, int64(size))
		h.Corrupt = true
	}
	f.arriveAt(at, seq, src, dst, size, class, h, m)
	if d.Duplicate {
		f.record(dst, flight.KindDuplicate, seq, src, dst, class, int64(size))
		f.arriveAt(at+d.DupDelay, seq, src, dst, size, class, h, m)
	}
	return arrive
}

// arriveAt schedules one physical arrival of m at dst, on a pooled
// record so a delivery costs no closure allocation. A duplicated
// packet gets two records (two independent arrival events), exactly
// like the two closures it used to get.
func (f *Fabric) arriveAt(at sim.Time, seq uint64, src, dst, size int, class Class, h Header, m any) {
	a := f.newArrival()
	a.seq, a.src, a.dst, a.size, a.class, a.h, a.m = seq, src, dst, size, class, h, m
	f.k.At(at, a.run)
}

// arrival is a pooled in-flight packet delivery record.
type arrival struct {
	f     *Fabric
	seq   uint64
	src   int
	dst   int
	size  int
	class Class
	h     Header
	m     any
	run   func() // pre-bound to this record, built once per record
}

func (f *Fabric) newArrival() *arrival {
	a := f.apool.Get()
	if a.f == nil {
		a.f, a.run = f, a.deliverNow
	}
	return a
}

// deliverNow runs at the packet's physical arrival time. The record is
// recycled before the queue push/hook, so a handler that injects again
// inline can reuse it.
func (a *arrival) deliverNow() {
	f := a.f
	seq, src, dst, size, class, h, m := a.seq, a.src, a.dst, a.size, a.class, a.h, a.m
	a.m = nil
	f.apool.Put(a)
	// An arrival inside dst's down window is dropped at the dead NIC. The
	// check runs at arrival time: a packet can be sent before a crash and
	// arrive mid-restart.
	if f.down != nil && f.k.Now() < f.down[dst] {
		f.record(dst, flight.KindCrashDrop, seq, src, dst, class, 0)
		return
	}
	f.record(dst, flight.KindRecv, seq, src, dst, class, int64(size))
	if hook := f.hook; hook != nil {
		hook(src, dst, class, h, m)
		return
	}
	if h.Corrupt {
		return
	}
	switch class {
	case ClassDMA:
		f.ports[dst].DMA.Push(m)
	default:
		f.ports[dst].AM.Push(m)
	}
}
