package fabric

import (
	"testing"
	"testing/quick"

	"xlupc/internal/sim"
)

func TestCrossbar3Hops(t *testing.T) {
	c := NewCrossbar3(512, 16, 8)
	cases := []struct{ a, b, want int }{
		{0, 1, 1},     // same linecard
		{0, 15, 1},    // same linecard edge
		{0, 16, 3},    // next linecard, same spine group
		{0, 127, 3},   // last node of spine group 0
		{0, 128, 5},   // first node of spine group 1
		{500, 501, 1}, // high nodes, same linecard
		{0, 511, 5},
	}
	for _, cse := range cases {
		if got := c.Hops(cse.a, cse.b); got != cse.want {
			t.Errorf("Hops(%d,%d) = %d, want %d", cse.a, cse.b, got, cse.want)
		}
	}
}

func TestCrossbar3Symmetric(t *testing.T) {
	c := DefaultCrossbar3(512)
	f := func(a, b uint16) bool {
		x, y := int(a)%512, int(b)%512
		if x == y {
			return true
		}
		h := c.Hops(x, y)
		return h == c.Hops(y, x) && (h == 1 || h == 3 || h == 5)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFlatHops(t *testing.T) {
	fl := NewFlat(28, 2)
	if fl.Hops(0, 27) != 2 || fl.Hops(3, 4) != 2 {
		t.Fatal("flat topology should have constant hops")
	}
	if fl.Nodes() != 28 || fl.Name() != "flat" {
		t.Fatal("flat metadata wrong")
	}
}

func TestInvalidTopologyPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewCrossbar3(0, 16, 8) },
		func() { NewFlat(-1, 2) },
		func() { NewFlat(4, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func testWire() WireModel {
	return WireModel{BaseLatency: 1 * sim.Us, HopLatency: 500 * sim.Ns, ByteTime: 4 * sim.Ns}
}

func TestWireLatencyBudget(t *testing.T) {
	w := testWire()
	topo := DefaultCrossbar3(512)
	if got := w.Latency(topo, 0, 1); got != 1*sim.Us+500*sim.Ns {
		t.Fatalf("1-hop latency %v", got)
	}
	if got := w.Latency(topo, 0, 128); got != 1*sim.Us+2500*sim.Ns {
		t.Fatalf("5-hop latency %v", got)
	}
	if got := w.Serialize(1000); got != 4*sim.Us {
		t.Fatalf("serialize %v", got)
	}
}

// inject is how a test process sends: InjectC with the process's Wake,
// then Await. The caller holds src's TX port, and gets control back
// when the message is serialized.
func inject(f *Fabric, p *sim.Proc, src, dst, size int, class Class, m any) {
	f.InjectC(src, dst, size, class, m, p.Cont().ThenAt(p, 0))
	p.Await()
}

// acquire and pop are a test process's blocking forms of
// Resource.AcquireCont and Queue.WaitFn+TryPop, built the same way.
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

func TestInjectDeliversAtWireTime(t *testing.T) {
	k := sim.NewKernel()
	f := New(k, NewFlat(2, 2), testWire())
	var sentDone, arrived sim.Time
	var got any
	k.Spawn("sender", func(p *sim.Proc) {
		acquire(f.Port(0).TX, p)
		inject(f, p, 0, 1, 1000, ClassAM, "payload")
		f.Port(0).TX.Release()
		sentDone = p.Now()
	})
	k.Spawn("receiver", func(p *sim.Proc) {
		got = pop(f.Port(1).AM, p)
		arrived = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Serialization of 1000B at 4ns/B = 4us; sender returns then.
	if sentDone != 4*sim.Us {
		t.Fatalf("sender done at %v, want 4us", sentDone)
	}
	// Arrival = serialization end + base 1us + 2 hops * 500ns = 6us.
	if arrived != 6*sim.Us {
		t.Fatalf("arrived at %v, want 6us", arrived)
	}
	if got != "payload" {
		t.Fatalf("got %v", got)
	}
	if f.Messages() != 1 || f.Bytes() != 1000 {
		t.Fatalf("accounting: %d msgs %d bytes", f.Messages(), f.Bytes())
	}
}

func TestInjectClassesSeparateQueues(t *testing.T) {
	k := sim.NewKernel()
	f := New(k, NewFlat(2, 1), testWire())
	var am, dma any
	k.Spawn("sender", func(p *sim.Proc) {
		tx := f.Port(0).TX
		acquire(tx, p)
		inject(f, p, 0, 1, 10, ClassAM, "am")
		inject(f, p, 0, 1, 10, ClassDMA, "dma")
		tx.Release()
	})
	k.Spawn("amrecv", func(p *sim.Proc) { am = pop(f.Port(1).AM, p) })
	k.Spawn("dmarecv", func(p *sim.Proc) { dma = pop(f.Port(1).DMA, p) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if am != "am" || dma != "dma" {
		t.Fatalf("am=%v dma=%v", am, dma)
	}
}

func TestTXContentionSerializesInjection(t *testing.T) {
	k := sim.NewKernel()
	f := New(k, NewFlat(3, 1), testWire())
	var arrivals []sim.Time
	for i := 1; i <= 2; i++ {
		dst := i
		k.Spawn("sender", func(p *sim.Proc) {
			tx := f.Port(0).TX
			acquire(tx, p)
			inject(f, p, 0, dst, 1000, ClassAM, dst)
			tx.Release()
		})
		k.Spawn("recv", func(p *sim.Proc) {
			pop(f.Port(dst).AM, p)
			arrivals = append(arrivals, p.Now())
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Two 4us serializations share one TX port: second message starts
	// injecting at 4us. Arrivals at 5.5us and 9.5us.
	if len(arrivals) != 2 {
		t.Fatalf("arrivals %v", arrivals)
	}
	if arrivals[0] != 5500*sim.Ns || arrivals[1] != 9500*sim.Ns {
		t.Fatalf("arrivals %v, want [5.5us 9.5us]", arrivals)
	}
}

func TestSelfSendPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	k := sim.NewKernel()
	f := New(k, NewFlat(2, 1), testWire())
	k.Spawn("bad", func(p *sim.Proc) {
		acquire(f.Port(0).TX, p)
		inject(f, p, 0, 0, 10, ClassAM, nil)
	})
	_ = k.Run()
}

func TestMessagesArriveInOrderPerSender(t *testing.T) {
	k := sim.NewKernel()
	f := New(k, NewFlat(2, 1), testWire())
	const n = 20
	var got []int
	k.Spawn("sender", func(p *sim.Proc) {
		tx := f.Port(0).TX
		for i := 0; i < n; i++ {
			acquire(tx, p)
			inject(f, p, 0, 1, 100, ClassAM, i)
			tx.Release()
		}
	})
	k.Spawn("recv", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			got = append(got, pop(f.Port(1).AM, p).(int))
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order arrivals: %v", got)
		}
	}
}

func TestTorus3DHops(t *testing.T) {
	tor := NewTorus3D(4, 4, 4)
	cases := []struct{ a, b, want int }{
		{0, 1, 1},  // +x neighbour
		{0, 3, 1},  // x wraparound: distance 1, not 3
		{0, 4, 1},  // +y neighbour
		{0, 16, 1}, // +z neighbour
		{0, 21, 3}, // (1,1,1)
		{0, 42, 6}, // (2,2,2): the torus diameter
		{5, 5, 1},  // degenerate same-node guard
	}
	for _, c := range cases {
		if got := tor.Hops(c.a, c.b); got != c.want {
			t.Errorf("Hops(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestTorus3DSymmetric(t *testing.T) {
	tor := DefaultTorus3D(60) // 4x4x4
	if tor.Nodes() < 60 {
		t.Fatalf("default torus too small: %d", tor.Nodes())
	}
	f := func(a, b uint8) bool {
		x, y := int(a)%60, int(b)%60
		return tor.Hops(x, y) == tor.Hops(y, x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTorus3DInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTorus3D(4, 0, 4)
}
