package transport

import (
	"strings"
	"testing"

	"xlupc/internal/fault"
	"xlupc/internal/flight"
	"xlupc/internal/mem"
	"xlupc/internal/pool"
	"xlupc/internal/sim"
)

// chaosMachine is newTestMachine plus the reliable layer and an
// optional injector.
func chaosMachine(t *testing.T, nodes int, fc fault.Config, rc RelConfig) (*sim.Kernel, *Machine) {
	t.Helper()
	k, m := newTestMachine(t, GM(), nodes)
	var inj *fault.Injector
	if fc.Active() {
		inj = fault.New(99, fc)
	}
	m.EnableChaos(inj, rc)
	return k, m
}

// With the reliable layer on but no hazards, traffic flows with zero
// retransmissions and every packet ACKed exactly once.
func TestReliableZeroLossNoRetransmits(t *testing.T) {
	k, m := chaosMachine(t, 2, fault.Config{}, DefaultRelConfig())
	const pings = 20
	got := 0
	m.Handle(hPing, func(ct *sim.Cont, n *Node, msg *Msg, then func()) { got++; then() })
	k.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < pings; i++ {
			sendAM(m, p, 0, 1, hPing, nil, nil, 0)
		}
		p.Sleep(2 * sim.Ms) // all deliveries land well before this
		k.Stop()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != pings {
		t.Fatalf("delivered %d of %d", got, pings)
	}
	fl := m.FR.Totals()
	if fl[flight.KindRetransmit] != 0 || fl[flight.KindDupSuppress] != 0 || fl[flight.KindCorruptDrop] != 0 {
		t.Fatalf("clean wire did reliability work: %v", fl)
	}
	if fl[flight.KindAck] != pings {
		t.Fatalf("acks %d, want %d", fl[flight.KindAck], pings)
	}
	if m.FatalError() != nil {
		t.Fatalf("unexpected failure: %v", m.FatalError())
	}
}

// Under heavy drop/corrupt/duplicate hazards, every AM must still be
// delivered exactly once, via retransmission and dedup.
func TestReliableDeliversExactlyOnceUnderChaos(t *testing.T) {
	fc := fault.Config{Drop: 0.2, Corrupt: 0.1, Duplicate: 0.2, Delay: 0.2, DelayMax: 5 * sim.Us}
	k, m := chaosMachine(t, 2, fc, DefaultRelConfig())
	const pings = 60
	seen := make(map[int]int)
	type meta struct{ i int }
	m.Handle(hPing, func(ct *sim.Cont, n *Node, msg *Msg, then func()) { seen[msg.Meta.(*meta).i]++; then() })
	k.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < pings; i++ {
			sendAM(m, p, 0, 1, hPing, &meta{i: i}, nil, 0)
		}
	})
	// Let the retransmit machinery drain; the run ends when only
	// daemons remain.
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if m.FatalError() != nil {
		t.Fatalf("budget exhausted unexpectedly: %v", m.FatalError())
	}
	for i := 0; i < pings; i++ {
		if seen[i] != 1 {
			t.Fatalf("message %d handled %d times", i, seen[i])
		}
	}
	fl := m.FR.Totals()
	if fl[flight.KindDrop] == 0 || fl[flight.KindCorrupt] == 0 || fl[flight.KindDuplicate] == 0 {
		t.Fatalf("hazards never fired: %v", fl)
	}
	if fl[flight.KindRetransmit] == 0 {
		t.Fatal("drops happened but nothing was retransmitted")
	}
	if fl[flight.KindDupSuppress] == 0 {
		t.Fatal("duplicates happened but none were suppressed")
	}
}

// RDMA GET/PUT must survive the same hazards: payloads correct, each
// completion fired exactly once (a replayed response would panic on
// double-completion of a recycled completion).
func TestReliableRDMAUnderChaos(t *testing.T) {
	fc := fault.Config{Drop: 0.15, Corrupt: 0.1, Duplicate: 0.2, Delay: 0.2, DelayMax: 5 * sim.Us}
	k, m := chaosMachine(t, 2, fc, DefaultRelConfig())
	nd := m.Nodes[1]
	base := nd.Mem.Alloc(256)
	if _, err := nd.Pins.Pin(base, 256, 0, 0); err != nil {
		t.Fatal(err)
	}
	k.Spawn("initiator", func(p *sim.Proc) {
		for i := 0; i < 25; i++ {
			want := []byte{byte(i), byte(i + 1), byte(i + 2), byte(i + 3)}
			ack := rdmaPut(m, p, 0, 1, base, base+mem.Addr(4*i), want, m.Nodes[1].Epoch)
			wait(p, ack)
			k.Recycle(ack)
			got, _, ok := rdmaGet(m, p, 0, 1, base, base+mem.Addr(4*i), 4, m.Nodes[1].Epoch)
			if !ok {
				t.Errorf("op %d: unexpected NACK", i)
				continue
			}
			if string(got) != string(want) {
				t.Errorf("op %d: got %v want %v", i, got, want)
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if m.FatalError() != nil {
		t.Fatalf("budget exhausted unexpectedly: %v", m.FatalError())
	}
	if m.FR.Total(flight.KindRetransmit) == 0 {
		t.Fatal("chaos run needed no retransmissions; hazards not exercised")
	}
}

// Total loss must exhaust the retry budget and surface as a typed
// TransportError that stops the kernel — fail-fast, not deadlock.
func TestRetryBudgetExhaustionFailsFast(t *testing.T) {
	fc := fault.Config{Drop: 1} // the wire eats everything
	rc := RelConfig{RTO: 10 * sim.Us, MaxRetries: 3}
	k, m := chaosMachine(t, 2, fc, rc)
	m.Handle(hPing, func(ct *sim.Cont, n *Node, msg *Msg, then func()) { t.Error("delivered through Drop=1"); then() })
	k.Spawn("sender", func(p *sim.Proc) {
		sendAM(m, p, 0, 1, hPing, nil, nil, 0)
		p.Sleep(sim.Ms) // park; the failure must end the run regardless
	})
	err := k.Run() // Stop() path: Run itself returns nil
	if err != nil {
		t.Fatalf("kernel error: %v", err)
	}
	te := m.FatalError()
	if te == nil {
		t.Fatal("no TransportError after total loss")
	}
	// The typed error must name the dead channel exactly: endpoints,
	// class, and the sequence number of the abandoned packet (the first
	// on a fresh channel, hence 0).
	if te.Src != 0 || te.Dst != 1 || te.Attempts != rc.MaxRetries+1 {
		t.Fatalf("wrong failure: %+v", te)
	}
	if te.Class != "am" {
		t.Fatalf("class %q, want %q", te.Class, "am")
	}
	if te.Seq != 0 {
		t.Fatalf("seq %d, want 0 (first packet of the channel)", te.Seq)
	}
	if !strings.Contains(te.Error(), "undeliverable") {
		t.Fatalf("unhelpful message: %v", te)
	}
	if !strings.Contains(te.Error(), "0->1 seq=0") {
		t.Fatalf("message does not name the channel and sequence: %v", te)
	}
	// Backoff: 10+20+40+80 µs of timeouts, plus wire time.
	if now := k.Now(); now < 150*sim.Us || now > 400*sim.Us {
		t.Fatalf("failed at %v; backoff schedule wrong", now)
	}
	k.Shutdown()
}

// Cancelled retransmit timers must not stretch the run's makespan: the
// virtual end time of an acked exchange is the exchange itself, not
// the dead timeout far behind it.
func TestAckedTimersDoNotInflateElapsed(t *testing.T) {
	k, m := chaosMachine(t, 2, fault.Config{}, RelConfig{RTO: 50 * sim.Ms, MaxRetries: 2})
	m.Handle(hPing, func(ct *sim.Cont, n *Node, msg *Msg, then func()) { then() })
	k.Spawn("sender", func(p *sim.Proc) {
		sendAM(m, p, 0, 1, hPing, nil, nil, 0)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if now := k.Now(); now >= 50*sim.Ms {
		t.Fatalf("run stretched to the dead RTO: %v", now)
	}
}

// A crash bumps the target's incarnation: descriptors carrying the old
// epoch are NACKed stale (with the new epoch), a descriptor carrying
// the fresh epoch succeeds, and the first epoch-matched operation after
// the restart records the recovery.
func TestCrashStaleEpochNackAndRecovery(t *testing.T) {
	k, m := newTestMachine(t, GM(), 2)
	nd := m.Nodes[1]
	base := nd.Mem.Alloc(64)
	if _, err := nd.Pins.Pin(base, 64, 0, 0); err != nil {
		t.Fatal(err)
	}
	nd.Mem.Write(base, []byte{1, 2, 3, 4})
	k.Spawn("initiator", func(p *sim.Proc) {
		oldEpoch := m.Nodes[1].Epoch // 0: the incarnation that advertised base
		backAt := p.Now() + 100*sim.Us
		if ep := m.CrashNode(1, backAt); ep != 1 {
			t.Errorf("first crash produced epoch %d, want 1", ep)
		}
		p.Sleep(backAt - p.Now() + sim.Us) // wait out the restart window

		data, nack, ok := rdmaGet(m, p, 0, 1, base, base, 4, oldEpoch)
		if ok || data != nil {
			t.Errorf("stale-epoch GET succeeded: %v", data)
		}
		if !nack.Stale || nack.Epoch != 1 {
			t.Errorf("GET nack = %+v, want stale with epoch 1", nack)
		}

		ack := rdmaPut(m, p, 0, 1, base, base, []byte{9, 9}, oldEpoch)
		wait(p, ack)
		if nk, isNack := ack.Value().(Nack); !isNack || !nk.Stale || nk.Epoch != 1 {
			t.Errorf("PUT completion = %v, want stale nack with epoch 1", ack.Value())
		}
		k.Recycle(ack)

		data, nack, ok = rdmaGet(m, p, 0, 1, base, base, 4, 1)
		if !ok {
			t.Errorf("fresh-epoch GET nacked: %+v", nack)
		} else if string(data) != string([]byte{1, 2, 3, 4}) {
			t.Errorf("fresh-epoch GET read %v", data)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	fl := m.FR.Totals()
	if fl[flight.KindCrash] != 1 || fl[flight.KindStaleNack] != 2 {
		t.Fatalf("crash records %v, want 1 crash and 2 stale nacks", fl)
	}
	if fl[flight.KindRestart] != 1 || m.RecoveryTime() <= 0 {
		t.Fatalf("crash records %v, recovery time %v: want 1 recovery with positive recovery time", fl, m.RecoveryTime())
	}
}

// While the target's NIC is down, retransmit expiries must park against
// the restart timer — attempt count untouched — instead of burning the
// retry budget into a spurious TransportError. The packet is delivered
// by the first real retransmit after the restart.
func TestCrashParksRetransmitsAgainstRestart(t *testing.T) {
	rc := RelConfig{RTO: 20 * sim.Us, MaxRetries: 2}
	k, m := chaosMachine(t, 2, fault.Config{}, rc)
	got := 0
	m.Handle(hPing, func(ct *sim.Cont, n *Node, msg *Msg, then func()) { got++; then() })
	k.Spawn("sender", func(p *sim.Proc) {
		// The down window (300 µs) is far longer than the whole backoff
		// budget (20+40 µs): without parking this run must fail.
		m.CrashNode(1, p.Now()+300*sim.Us)
		sendAM(m, p, 0, 1, hPing, nil, nil, 0)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if te := m.FatalError(); te != nil {
		t.Fatalf("crash window exhausted the retry budget: %v", te)
	}
	if got != 1 {
		t.Fatalf("delivered %d pings, want 1", got)
	}
	fl := m.FR.Totals()
	if fl[flight.KindPark] == 0 {
		t.Fatal("no expiries parked during the down window")
	}
	if n := fl[flight.KindRetransmit]; n == 0 || n > int64(rc.MaxRetries) {
		t.Fatalf("retransmits %d, want within the untouched budget (1..%d)", n, rc.MaxRetries)
	}
	if fl[flight.KindCrashDrop] == 0 {
		t.Fatal("nothing dropped at the dead NIC; the down window never bit")
	}
}

// A restarted node's channels start over at sequence 0 in its new
// epoch: the fresh stream must not collide with receiver-side dedup
// state from the previous incarnation.
func TestCrashRestartSeqRestartsInNewEpoch(t *testing.T) {
	k, m := chaosMachine(t, 2, fault.Config{}, DefaultRelConfig())
	got := 0
	m.Handle(hPing, func(ct *sim.Cont, n *Node, msg *Msg, then func()) { got++; then() })
	k.Spawn("sender", func(p *sim.Proc) {
		sendAM(m, p, 1, 0, hPing, nil, nil, 0) // seq 0, epoch 0
		p.Sleep(50 * sim.Us)                   // let it deliver and ACK
		m.CrashNode(1, p.Now()+10*sim.Us)      // node 1 loses its seq counters
		p.Sleep(20 * sim.Us)
		sendAM(m, p, 1, 0, hPing, nil, nil, 0) // seq 0 again — epoch 1
		p.Sleep(50 * sim.Us)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Fatalf("delivered %d pings, want 2 (restarted seq 0 deduped as a replay?)", got)
	}
	if n := m.FR.Total(flight.KindDupSuppress); n != 0 {
		t.Fatalf("restarted channel: %d arrivals suppressed as duplicates", n)
	}
}

// An ACK that arrives while a retransmit of the same packet is still
// on the sender's TX port must retire the packet for good: the
// retransmit's completion must not re-arm a timer on a packet nobody
// tracks any more (every later ACK would miss inflight, and a fully
// delivered packet would end the run as undeliverable).
func TestAckDuringRetransmitDoesNotOrphanTimer(t *testing.T) {
	payload := make([]byte, 4096) // serialization long enough to straddle the ACK
	// exchange runs one AM under rto and reports when the sender had the
	// packet tracked and when the run drained.
	exchange := func(rto sim.Time) (tracked, end sim.Time, m *Machine) {
		k, m := chaosMachine(t, 2, fault.Config{}, RelConfig{RTO: rto, MaxRetries: 3})
		delivered := 0
		m.Handle(hPing, func(ct *sim.Cont, n *Node, msg *Msg, then func()) { delivered++; then() })
		k.Spawn("sender", func(p *sim.Proc) {
			sendAM(m, p, 0, 1, hPing, nil, payload, 0)
			tracked = p.Now()
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		k.Shutdown()
		if delivered != 1 {
			t.Fatalf("rto %v: delivered %d times, want 1", rto, delivered)
		}
		return tracked, k.Now(), m
	}
	// Clean pass: the run's last event is the ACK's arrival.
	tracked, acked, _ := exchange(50 * sim.Ms)
	// Second pass: the timer fires 1 ns before that ACK lands, so the
	// ACK arrives while the retransmit serializes.
	_, _, m := exchange(acked - tracked - sim.Ns)
	if te := m.FatalError(); te != nil {
		t.Fatalf("delivered and ACKed packet reported dead: %v", te)
	}
	if fl := m.FR.Totals(); fl[flight.KindRetransmit] != 1 || fl[flight.KindDupSuppress] != 1 {
		t.Fatalf("want exactly one retransmit, suppressed as a duplicate: %v", fl)
	}
}

// relWindow's dedup answers exactly as a set of every delivered
// sequence number would, over shuffled, duplicated arrivals.
func TestRelWindowMatchesSet(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		var w relWindow
		set := make(map[uint64]bool)
		x := seed
		for i := 0; i < 2000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			// Mostly near the window's edge, like retransmissions and
			// duplicates; now and then far ahead of it.
			seq := w.next + x%8
			if x%97 == 0 {
				seq = w.next + 50 + x%50
			}
			if x%5 == 0 && w.next > 0 {
				seq = x % w.next
			}
			if dup := w.deliver(seq); dup != set[seq] {
				t.Fatalf("seed %d arrival %d: seq %d dup=%v, set says %v", seed, i, seq, dup, set[seq])
			}
			set[seq] = true
		}
		for s := range w.above {
			if s <= w.next {
				t.Fatalf("seed %d: %d held above next %d", seed, s, w.next)
			}
		}
	}
}

// On a lossy, duplicating wire the reliable layer recycles its packets
// and ACKs: a ping costs no allocation beyond the pools' growth, and
// once every packet is in, each channel's dedup state is one counter.
func TestReliablePacketsRecycle(t *testing.T) {
	if pool.Poison {
		t.Skip("the xlupcpoison build allocates every pooled record afresh")
	}
	fc := fault.Config{Drop: 0.05, Corrupt: 0.02, Duplicate: 0.05, Delay: 0.1, DelayMax: 5 * sim.Us}
	run := func(pings int) (m *Machine) {
		k, mm := chaosMachine(t, 2, fc, DefaultRelConfig())
		mm.Handle(hPing, func(ct *sim.Cont, n *Node, msg *Msg, then func()) { then() })
		k.Spawn("sender", func(p *sim.Proc) {
			for i := 0; i < pings; i++ {
				sendAM(mm, p, 0, 1, hPing, nil, nil, 0)
				p.Sleep(100 * sim.Us) // one ping in flight: the population stays flat
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return mm
	}
	m := run(300)
	if fl := m.FR.Totals(); fl[flight.KindRetransmit] == 0 || fl[flight.KindDupSuppress] == 0 {
		t.Fatalf("hazards did not bite: %v", fl)
	}
	for ch, w := range m.rel.seen {
		if len(w.above) != 0 {
			t.Errorf("channel %+v: %d arrivals still held above %d", ch, len(w.above), w.next)
		}
	}
	allocs := func(pings int) float64 { return testing.AllocsPerRun(3, func() { run(pings) }) }
	if per := (allocs(600) - allocs(300)) / 300; per > 0.25 {
		t.Errorf("a reliable ping allocates %.2f (> 0.25): packets or ACKs are not recycled", per)
	}
}
