package transport

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"xlupc/internal/mem"
	"xlupc/internal/sim"
)

const (
	hPing HandlerID = iota + 1
	hPong
)

// newTestMachine builds a 2-node machine with a short-circuit topology
// so timing arithmetic in tests stays simple.
func newTestMachine(t *testing.T, prof *Profile, nodes int) (*sim.Kernel, *Machine) {
	t.Helper()
	k := sim.NewKernel()
	return k, NewMachine(k, prof, nodes)
}

// limitPins gives every node of m a limited-pinning table under the
// profile's limits before any pin traffic, as core.Config.Pin does for a
// runtime.
func limitPins(m *Machine) {
	for i, nd := range m.Nodes {
		nd.Pins = mem.NewPinTable(i, m.Prof.Reg, mem.PinLimited)
		nd.Pins.SetFlightRecorder(m.FR)
	}
}

// rdmaGet and rdmaPut are how a test process performs a blocking
// one-sided operation: the continuation form with the process's Wake,
// then Await. epoch is the target incarnation the initiator believes
// in. rdmaPut returns the completion that fires when the data is
// visible in target memory.
func rdmaGet(m *Machine, p *sim.Proc, src, dst int, base, raddr mem.Addr, size int, epoch uint32) (data []byte, nack Nack, ok bool) {
	var res RDMAResult
	m.RDMAGetSpanC(p.Cont(), src, dst, base, raddr, nil, size, epoch, nil, &res, p.Wake())
	p.Await()
	return res.Data, res.Nack, res.OK
}

func rdmaPut(m *Machine, p *sim.Proc, src, dst int, base, raddr mem.Addr, data []byte, epoch uint32) *sim.Completion {
	var res RDMAResult
	m.RDMAPutSpanC(p.Cont(), src, dst, base, raddr, data, epoch, nil, &res, p.Wake())
	p.Await()
	return res.Done
}

// sendAM, wait, acquire and pop are the blocking forms a test process
// uses, built like rdmaGet: the continuation form with the process's
// Wake, then Await.
func sendAM(m *Machine, p *sim.Proc, src, dst int, id HandlerID, meta any, payload []byte, extra int) {
	m.SendAMSpanC(p.Cont(), src, dst, id, meta, payload, extra, nil, p.Wake())
	p.Await()
}

func wait(p *sim.Proc, c *sim.Completion) {
	c.WaitFn(p.Cont(), p.Wake())
	p.Await()
}

func acquire(r *sim.Resource, p *sim.Proc) {
	r.AcquireCont(p.Cont(), p.Wake())
	p.Await()
}

func pop[T any](q *sim.Queue[T], p *sim.Proc) T {
	for {
		if v, ok := q.TryPop(); ok {
			return v
		}
		q.WaitFn(p.Cont(), p.Wake())
		p.Await()
	}
}

func TestProfilesSane(t *testing.T) {
	gm, lapi := GM(), LAPI()
	if gm.CommCapacity != 0 || lapi.CommCapacity != 4 {
		t.Fatal("overlap flags wrong")
	}
	if !gm.PutCacheEnabled || lapi.PutCacheEnabled {
		t.Fatal("PUT cache defaults wrong")
	}
	// HPS bandwidth is 8x Myrinet (paper §4.3).
	if gm.Wire.ByteTime != 8*lapi.Wire.ByteTime {
		t.Fatalf("bandwidth ratio: gm %v vs lapi %v", gm.Wire.ByteTime, lapi.Wire.ByteTime)
	}
	if lapi.Reg.MaxPerObject != 32<<20 {
		t.Fatal("LAPI registration handle limit wrong")
	}
	if gm.Reg.MaxTotal != 1<<30 {
		t.Fatal("GM DMAable memory limit wrong")
	}
	if ByName("gm") == nil || ByName("lapi") == nil || ByName("bogus") != nil {
		t.Fatal("ByName broken")
	}
}

func TestAMRoundTrip(t *testing.T) {
	k, m := newTestMachine(t, GM(), 2)
	type pingMeta struct {
		done *sim.Completion
	}
	m.Handle(hPing, func(ct *sim.Cont, n *Node, msg *Msg, then func()) {
		ct.Sleep(1*sim.Us, func() { // handler work
			m.SendAMSpanC(ct, n.ID, msg.Src, hPong, msg.Meta, nil, 0, nil, then)
		})
	})
	m.Handle(hPong, func(ct *sim.Cont, n *Node, msg *Msg, then func()) {
		msg.Meta.(*pingMeta).done.Complete(nil)
		then()
	})
	var rtt sim.Time
	k.Spawn("pinger", func(p *sim.Proc) {
		done := sim.NewCompletion(k, "ping")
		start := p.Now()
		sendAM(m, p, 0, 1, hPing, &pingMeta{done: done}, nil, 0)
		wait(p, done)
		rtt = p.Now() - start
		k.Stop()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if rtt < 4*sim.Us || rtt > 12*sim.Us {
		t.Fatalf("AM ping-pong rtt %v outside the small-message envelope", rtt)
	}
	if m.AMCount() != 2 {
		t.Fatalf("am count %d", m.AMCount())
	}
}

func TestAMPayloadDelivered(t *testing.T) {
	k, m := newTestMachine(t, GM(), 2)
	var got []byte
	m.Handle(hPing, func(ct *sim.Cont, n *Node, msg *Msg, then func()) {
		got = msg.Payload
		k.Stop()
		then()
	})
	want := []byte("eager payload")
	k.Spawn("sender", func(p *sim.Proc) {
		sendAM(m, p, 0, 1, hPing, nil, want, 0)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("payload %q", got)
	}
}

func TestUnknownHandlerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	k, m := newTestMachine(t, GM(), 2)
	k.Spawn("sender", func(p *sim.Proc) {
		sendAM(m, p, 0, 1, 99, nil, nil, 0)
	})
	_ = k.Run()
}

func TestDuplicateHandlerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	_, m := newTestMachine(t, GM(), 2)
	m.Handle(hPing, func(*sim.Cont, *Node, *Msg, func()) {})
	m.Handle(hPing, func(*sim.Cont, *Node, *Msg, func()) {})
}

// On GM the AM handler executes on the compute CPU: a node whose cores
// are all busy cannot serve remote requests (paper §4.6, the Field
// effect). On LAPI the dedicated comm engine overlaps.
func TestOverlapVsNoOverlap(t *testing.T) {
	run := func(prof *Profile) sim.Time {
		k, m := newTestMachine(t, prof, 2)
		m.Handle(hPing, func(ct *sim.Cont, n *Node, msg *Msg, then func()) {
			msg.Meta.(*sim.Completion).Complete(nil)
			then()
		})
		const busy = 200 * sim.Us
		// Saturate node 1's cores with compute work.
		for i := 0; i < prof.Cores; i++ {
			k.Spawn("burner", func(p *sim.Proc) {
				acquire(m.Nodes[1].CPU, p)
				p.Sleep(busy)
				m.Nodes[1].CPU.Release()
			})
		}
		var served sim.Time
		k.Spawn("pinger", func(p *sim.Proc) {
			p.Sleep(1 * sim.Us) // let the burners grab the cores
			done := sim.NewCompletion(k, "served")
			sendAM(m, p, 0, 1, hPing, done, nil, 0)
			wait(p, done)
			served = p.Now()
			k.Stop()
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return served
	}
	gmServed := run(GM())
	lapiServed := run(LAPI())
	if gmServed < 200*sim.Us {
		t.Fatalf("GM handler ran at %v despite busy CPU", gmServed)
	}
	if lapiServed > 50*sim.Us {
		t.Fatalf("LAPI handler waited for CPU: served at %v", lapiServed)
	}
}

func TestRDMAGetMovesData(t *testing.T) {
	k, m := newTestMachine(t, GM(), 2)
	target := m.Nodes[1]
	base := target.Mem.Alloc(4096)
	want := []byte{0xde, 0xad, 0xbe, 0xef}
	target.Mem.Write(base+128, want)
	if _, err := target.Pins.Pin(base, 4096, 0, 0); err != nil {
		t.Fatal(err)
	}
	var got []byte
	k.Spawn("initiator", func(p *sim.Proc) {
		data, _, ok := rdmaGet(m, p, 0, 1, base, base+128, 4, m.Nodes[1].Epoch)
		if !ok {
			t.Error("unexpected NACK")
		}
		got = data
		k.Stop()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("got %x", got)
	}
	if m.RDMACount() != 1 {
		t.Fatalf("rdma count %d", m.RDMACount())
	}
}

func TestRDMAGetUnpinnedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	k, m := newTestMachine(t, GM(), 2)
	base := m.Nodes[1].Mem.Alloc(64)
	k.Spawn("initiator", func(p *sim.Proc) {
		rdmaGet(m, p, 0, 1, base, base, 8, m.Nodes[1].Epoch)
	})
	_ = k.Run()
}

func TestRDMAPutWritesAndFences(t *testing.T) {
	k, m := newTestMachine(t, GM(), 2)
	target := m.Nodes[1]
	base := target.Mem.Alloc(256)
	if _, err := target.Pins.Pin(base, 256, 0, 0); err != nil {
		t.Fatal(err)
	}
	data := []byte("rdma put payload")
	var localDone, remoteDone sim.Time
	k.Spawn("initiator", func(p *sim.Proc) {
		done := rdmaPut(m, p, 0, 1, base, base+16, data, m.Nodes[1].Epoch)
		localDone = p.Now()
		wait(p, done)
		remoteDone = p.Now()
		k.Stop()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := target.Mem.ReadAlloc(base+16, len(data)); !bytes.Equal(got, data) {
		t.Fatalf("target memory %q", got)
	}
	if !(localDone < remoteDone) {
		t.Fatalf("local completion %v should precede remote %v", localDone, remoteDone)
	}
}

// The RDMA-mode completion latency makes a small cached PUT block the
// initiator longer on LAPI than on GM — the root of Figure 6's
// negative LAPI PUT improvement.
func TestLAPIPutExtraLatency(t *testing.T) {
	overhead := func(prof *Profile) sim.Time {
		k, m := newTestMachine(t, prof, 2)
		target := m.Nodes[1]
		base := target.Mem.Alloc(64)
		if _, err := target.Pins.Pin(base, 64, 0, 0); err != nil {
			t.Fatal(err)
		}
		var d sim.Time
		k.Spawn("initiator", func(p *sim.Proc) {
			start := p.Now()
			rdmaPut(m, p, 0, 1, base, base, []byte{1, 2, 3, 4}, m.Nodes[1].Epoch)
			d = p.Now() - start
			k.Stop()
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return d
	}
	gm, lapi := overhead(GM()), overhead(LAPI())
	if lapi <= gm {
		t.Fatalf("LAPI RDMA PUT overhead %v should exceed GM %v", lapi, gm)
	}
	if lapi-gm < 1*sim.Us {
		t.Fatalf("extra latency too small: %v", lapi-gm)
	}
}

// RDMA needs no target CPU: a GET completes promptly even when every
// core of the target is busy — on both transports.
func TestRDMABypassesBusyCPU(t *testing.T) {
	for _, prof := range []*Profile{GM(), LAPI()} {
		k, m := newTestMachine(t, prof, 2)
		target := m.Nodes[1]
		base := target.Mem.Alloc(64)
		if _, err := target.Pins.Pin(base, 64, 0, 0); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < prof.Cores; i++ {
			k.Spawn("burner", func(p *sim.Proc) {
				acquire(target.CPU, p)
				p.Sleep(500 * sim.Us)
				target.CPU.Release()
			})
		}
		var done sim.Time
		k.Spawn("initiator", func(p *sim.Proc) {
			p.Sleep(1 * sim.Us)
			rdmaGet(m, p, 0, 1, base, base, 8, m.Nodes[1].Epoch)
			done = p.Now()
			k.Stop()
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if done > 60*sim.Us {
			t.Fatalf("%s: RDMA GET stalled behind busy CPU: %v", prof.Name, done)
		}
	}
}

func TestAMToSelfPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	k, m := newTestMachine(t, GM(), 2)
	k.Spawn("bad", func(p *sim.Proc) {
		sendAM(m, p, 0, 0, hPing, nil, nil, 0)
	})
	_ = k.Run()
}

// Larger RDMA GETs take proportionally longer (bandwidth term).
func TestRDMAGetScalesWithSize(t *testing.T) {
	latency := func(size int) sim.Time {
		k, m := newTestMachine(t, GM(), 2)
		target := m.Nodes[1]
		base := target.Mem.Alloc(size)
		if _, err := target.Pins.Pin(base, size, 0, 0); err != nil {
			t.Fatal(err)
		}
		var d sim.Time
		k.Spawn("initiator", func(p *sim.Proc) {
			start := p.Now()
			rdmaGet(m, p, 0, 1, base, base, size, m.Nodes[1].Epoch)
			d = p.Now() - start
			k.Stop()
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return d
	}
	small, big := latency(64), latency(64<<10)
	// 64 KB at 4 ns/B is ~262 us of serialization; it must dominate.
	if big < small+200*sim.Us {
		t.Fatalf("big %v vs small %v: bandwidth term missing", big, small)
	}
}

func TestMemAndPinsAreDistinctPerNode(t *testing.T) {
	_, m := newTestMachine(t, GM(), 3)
	a := m.Nodes[0].Mem.Alloc(64)
	m.Nodes[0].Mem.Write(a, []byte{1})
	if m.Nodes[1].Mem.Allocs() != 0 {
		t.Fatal("allocation leaked across nodes")
	}
	if _, err := m.Nodes[2].Pins.Pin(mem.Addr(0x40), 64, 0, 0); err != nil {
		t.Fatal(err)
	}
	if m.Nodes[0].Pins.Live() != 0 {
		t.Fatal("pin leaked across nodes")
	}
}

// Parallel AM handler contexts (LAPI) must actually run concurrently:
// two simultaneous 10us handlers on a CommCapacity=4 node finish
// together, not back to back.
func TestCommCapacityParallelism(t *testing.T) {
	prof := LAPI()
	k, m := newTestMachine(t, prof, 2)
	var done []sim.Time
	m.Handle(hPing, func(ct *sim.Cont, n *Node, msg *Msg, then func()) {
		ct.Sleep(10*sim.Us, func() {
			done = append(done, k.Now())
			if len(done) == 2 {
				k.Stop()
			}
			then()
		})
	})
	k.Spawn("sender", func(p *sim.Proc) {
		sendAM(m, p, 0, 1, hPing, nil, nil, 0)
		sendAM(m, p, 0, 1, hPing, nil, nil, 0)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(done) != 2 {
		t.Fatalf("handlers served: %d", len(done))
	}
	if gap := done[1] - done[0]; gap > 5*sim.Us {
		t.Fatalf("handlers serialized: gap %v", gap)
	}
}

// On GM (single polling dispatcher) the same two handlers serialize.
func TestGMHandlersSerialize(t *testing.T) {
	k, m := newTestMachine(t, GM(), 2)
	var done []sim.Time
	m.Handle(hPing, func(ct *sim.Cont, n *Node, msg *Msg, then func()) {
		ct.Sleep(10*sim.Us, func() {
			done = append(done, k.Now())
			if len(done) == 2 {
				k.Stop()
			}
			then()
		})
	})
	k.Spawn("sender", func(p *sim.Proc) {
		sendAM(m, p, 0, 1, hPing, nil, nil, 0)
		sendAM(m, p, 0, 1, hPing, nil, nil, 0)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if gap := done[1] - done[0]; gap < 10*sim.Us {
		t.Fatalf("GM handlers overlapped: gap %v", gap)
	}
}

// NACK path: a GET to a region that was pinned and then evicted under
// limited pinning returns ok=false instead of panicking.
func TestRDMAGetNackUnderLimitedPinning(t *testing.T) {
	k, m := newTestMachine(t, GM(), 2)
	limitPins(m)
	target := m.Nodes[1]
	base := target.Mem.Alloc(64)
	if _, err := target.Pins.Pin(base, 64, 7, 0); err != nil {
		t.Fatal(err)
	}
	target.Pins.Unpin(base, 0) // simulate an eviction
	k.Spawn("initiator", func(p *sim.Proc) {
		data, _, ok := rdmaGet(m, p, 0, 1, base, base, 8, m.Nodes[1].Epoch)
		if ok || data != nil {
			t.Errorf("expected NACK, got %v/%v", data, ok)
		}
		k.Stop()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// The machine's per-node names are index-derived and rendered on
// demand; deadlock reports must still read exactly as they did when
// NewMachine formatted every name up front.
func TestMachineNamesInDeadlockReport(t *testing.T) {
	k, m := newTestMachine(t, LAPI(), 4)
	nd, port := m.Nodes[3], m.Fab.Port(2)
	for _, got := range [][2]string{
		{nd.CPU.Name(), "node3.cpu"}, {nd.Comm.Name(), "node3.comm"},
		{port.TX.Name(), "nic2.tx"}, {port.AM.Name(), "nic2.am"}, {port.DMA.Name(), "nic2.dma"},
	} {
		if got[0] != got[1] {
			t.Errorf("name %q, want %q", got[0], got[1])
		}
	}
	k.Spawn("hog", func(p *sim.Proc) {
		for i := 0; i <= nd.CPU.Capacity(); i++ {
			acquire(nd.CPU, p)
		}
	})
	k.Spawn("thief", func(p *sim.Proc) { pop(port.AM, p) })
	err := k.Run()
	var de *sim.DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("want deadlock, got %v", err)
	}
	want := "hog: acquire node3.cpu|thief: pop nic2.am"
	var lines []string
	for _, bp := range de.Procs {
		lines = append(lines, bp.Name+": "+bp.State)
	}
	if got := strings.Join(lines, "|"); got != want {
		t.Fatalf("blocked = %q, want %q", got, want)
	}
	k.Shutdown()
}
