package transport

import (
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"xlupc/internal/fault"
	"xlupc/internal/flight"
	"xlupc/internal/mem"
	"xlupc/internal/sim"
	"xlupc/internal/telemetry"
)

var updateDMAGolden = flag.Bool("update", false, "rewrite testdata/dma_golden.json from this tree")

const dmaGoldenFile = "testdata/dma_golden.json"

// The matrix's fixed geometry: a 256-byte pinned region on node 1 filled
// with a byte pattern, every operation aimed at the 16 bytes (or the
// 8-byte word) at offset 64, issued from node 0.
const (
	dmaRegion = 256
	dmaOff    = 64
	dmaSize   = 16
)

// dmaAttempt is what the initiator saw of one call.
type dmaAttempt struct {
	ThenPs int64  `json:"then_ps"`           // when the call's then ran
	DonePs int64  `json:"done_ps,omitempty"` // when RDMAResult.Done fired (PUT and split-phase forms)
	Value  string `json:"value,omitempty"`   // what Done completed with
	Result string `json:"result"`            // the RDMAResult, Done aside
	Posted string `json:"posted,omitempty"`  // the posted receive buffer / result word afterwards
	Phases string `json:"phases"`            // the span's phases, in recording order
}

// dmaRow is what one cell of the engine matrix is pinned to.
type dmaRow struct {
	Attempts []dmaAttempt `json:"attempts"`
	Mem      string       `json:"mem"` // target bytes [dmaOff-8, dmaOff+dmaSize+8) afterwards
	EndPs    int64        `json:"end_ps"`
	Events   int64        `json:"events"`
	Messages int64        `json:"messages"`
	Bytes    int64        `json:"bytes"`
	RDMAs    int64        `json:"rdmas"`
	Nacks    int64        `json:"nacks"`
	Crash    dmaCrash     `json:"crash"`
	Flight   []string     `json:"flight"` // everything recorded at the target node
}

// dmaCrash is a cell's crash activity: the machine's crash, stale-NACK
// and restart records, and the recovery time it summed.
type dmaCrash struct {
	Crashes, StaleNacks, Recovered int64
	RecoveryTime                   sim.Time
}

// dmaCall is one of the five entry points applied to one of the
// operations: it issues the call on p's Cont and reports the posted
// buffer, if the operation has one.
type dmaCall func(m *Machine, p *sim.Proc, base mem.Addr, epoch uint32, span *telemetry.Span, res *RDMAResult) (posted []byte)

// dmaOps are the operations in one form: blocking (span) or split-phase
// (start). A PUT has no split-phase form.
func dmaOps(startForm bool) []struct {
	name string
	call dmaCall
} {
	payload := []byte("0123456789abcdef")
	get := func(posted bool) dmaCall {
		return func(m *Machine, p *sim.Proc, base mem.Addr, epoch uint32, span *telemetry.Span, res *RDMAResult) []byte {
			var into []byte
			if posted {
				into = make([]byte, dmaSize)
			}
			f := m.RDMAGetSpanC
			if startForm {
				f = m.RDMAGetStartC
			}
			f(p.Cont(), 0, 1, base, base+dmaOff, into, dmaSize, epoch, span, res, p.Wake())
			return into
		}
	}
	put := func(m *Machine, p *sim.Proc, base mem.Addr, epoch uint32, span *telemetry.Span, res *RDMAResult) []byte {
		m.RDMAPutSpanC(p.Cont(), 0, 1, base, base+dmaOff, payload, epoch, span, res, p.Wake())
		return nil
	}
	atomic := func(aop AtomicOp, delta uint64) dmaCall {
		return func(m *Machine, p *sim.Proc, base mem.Addr, epoch uint32, span *telemetry.Span, res *RDMAResult) []byte {
			var fetch []byte
			if aop.ResultBytes() > 0 {
				fetch = make([]byte, 8)
			}
			f := m.RDMAAtomicSpanC
			if startForm {
				f = m.RDMAAtomicStartC
			}
			f(p.Cont(), 0, 1, base, base+dmaOff, aop, delta, fetch, epoch, span, res, p.Wake())
			return fetch
		}
	}
	ops := []struct {
		name string
		call dmaCall
	}{
		{"get-posted", get(true)},
		{"get-alloc", get(false)},
		{"put", put},
		{"fetchadd", atomic(AtomicFetchAdd, 5)},
		{"accumulate", atomic(AtomicAccumulate, 9)},
	}
	if startForm {
		ops = append(ops[:2], ops[3:]...)
	}
	return ops
}

func dmaPattern() []byte {
	b := make([]byte, dmaRegion)
	for i := range b {
		b[i] = byte(i*7 + 3)
	}
	return b
}

func describeCompletion(c *sim.Completion) string {
	switch v := c.Value().(type) {
	case nil:
		if b := c.Bytes(); b != nil {
			return "bytes:" + hex.EncodeToString(b)
		}
		return "nil"
	case Nack:
		return fmt.Sprintf("nack{stale:%v epoch:%d}", v.Stale, v.Epoch)
	default:
		return fmt.Sprintf("%T:%v", v, v)
	}
}

func describeSpan(s *telemetry.Span) string {
	var b strings.Builder
	for i, ph := range s.Phases {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s:%d-%d", ph.Name, int64(ph.Start), int64(ph.End))
	}
	return b.String()
}

// dmaMachine builds the two-node machine every cell runs on, with the
// flight recorder's rings on, a telemetry hub for the spans, and the target region
// allocated, patterned and pinned.
func dmaMachine(t *testing.T, prof *Profile, chaos, limited bool) (*sim.Kernel, *Machine, *flight.Recorder, *telemetry.Telemetry, mem.Addr) {
	t.Helper()
	k, m := newTestMachine(t, prof, 2)
	if limited {
		limitPins(m)
	}
	if chaos {
		// Loss-free: nothing is dropped or corrupted, so no retransmit
		// timer ever fires, but duplicates and delays exercise dedup.
		m.EnableChaos(fault.New(7, fault.Config{Duplicate: 0.3, Delay: 0.3, DelayMax: 2 * sim.Us}), DefaultRelConfig())
	}
	fr := m.FR
	fr.AddRings(512)
	tel := telemetry.New()
	target := m.Nodes[1]
	base := target.Mem.Alloc(dmaRegion)
	target.Mem.Write(base, dmaPattern())
	if _, err := target.Pins.Pin(base, dmaRegion, 0, 0); err != nil {
		t.Fatal(err)
	}
	return k, m, fr, tel, base
}

// attempt performs one call as process p and waits for whatever it
// leaves outstanding.
func attempt(m *Machine, p *sim.Proc, tel *telemetry.Telemetry, call dmaCall, base mem.Addr, epoch uint32) dmaAttempt {
	span := tel.StartSpan("dma", 0, 0, p.Now())
	var res RDMAResult
	posted := call(m, p, base, epoch, span, &res)
	p.Await()
	a := dmaAttempt{ThenPs: int64(p.Now())}
	if done := res.Done; done != nil {
		wait(p, done)
		a.DonePs, a.Value = int64(p.Now()), describeCompletion(done)
	}
	a.Result = fmt.Sprintf("ok:%v data:%s old:%#x nack:%+v", res.OK, hex.EncodeToString(res.Data), res.Old, res.Nack)
	a.Posted = hex.EncodeToString(posted)
	span.Finish(p.Now())
	a.Phases = describeSpan(span)
	return a
}

func finishRow(k *sim.Kernel, m *Machine, fr *flight.Recorder, base mem.Addr, row *dmaRow) {
	row.Mem = hex.EncodeToString(m.Nodes[1].Mem.ReadAlloc(base+dmaOff-8, dmaSize+16))
	row.EndPs, row.Events = int64(k.Now()), k.Events()
	row.Messages, row.Bytes = m.Fab.Messages(), m.Fab.Bytes()
	row.RDMAs, row.Nacks = m.RDMACount(), m.NackCount()
	row.Crash = dmaCrash{
		Crashes: m.FR.Total(flight.KindCrash), StaleNacks: m.FR.Total(flight.KindStaleNack),
		Recovered: m.FR.Total(flight.KindRestart), RecoveryTime: m.RecoveryTime(),
	}
	for _, e := range fr.Node(1) {
		row.Flight = append(row.Flight, fmt.Sprintf("%s/%s %d>%d seq=%d arg=%d @%d", e.Kind, e.Class, e.Src, e.Dst, e.Seq, e.Arg, int64(e.T)))
	}
}

// runDMACell runs one (operation, outcome) cell: "served" is a live
// region at the right epoch, "stale" a descriptor carrying the epoch of
// the incarnation before a crash (followed by the same call at the new
// epoch, which must be served and confirm the restart), "pinrefused" a
// region deregistered under limited pinning.
func runDMACell(t *testing.T, prof *Profile, call dmaCall, outcome string, chaos bool) dmaRow {
	t.Helper()
	k, m, fr, tel, base := dmaMachine(t, prof, chaos, outcome == "pinrefused")
	if outcome == "pinrefused" {
		m.Nodes[1].Pins.Unpin(base, 0)
	}
	var row dmaRow
	k.Spawn("initiator", func(p *sim.Proc) {
		epoch := m.Nodes[1].Epoch
		if outcome == "stale" {
			m.CrashNode(1, p.Now()+5*sim.Us)
			p.Sleep(10 * sim.Us)
		}
		row.Attempts = append(row.Attempts, attempt(m, p, tel, call, base, epoch))
		if outcome == "stale" {
			row.Attempts = append(row.Attempts, attempt(m, p, tel, call, base, m.Nodes[1].Epoch))
		}
	})
	// No Stop: the run ends when the wire has drained, so the counters
	// include every trailing completion and acknowledgement.
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	finishRow(k, m, fr, base, &row)
	return row
}

// runDMADoorbell issues all four split-phase operations under doorbell
// coalescing, flushes, and waits for each: one frame, unpacked and
// served in order by the target engine.
func runDMADoorbell(t *testing.T, prof *Profile) dmaRow {
	t.Helper()
	k, m, fr, tel, base := dmaMachine(t, prof, false, false)
	m.EnableCoalescing()
	var row dmaRow
	k.Spawn("initiator", func(p *sim.Proc) {
		type pending struct {
			a      dmaAttempt
			span   *telemetry.Span
			res    *RDMAResult
			posted []byte
		}
		var ops []*pending
		for _, op := range dmaOps(true) {
			o := &pending{span: tel.StartSpan(op.name, 0, 0, p.Now()), res: &RDMAResult{}}
			o.posted = op.call(m, p, base, m.Nodes[1].Epoch, o.span, o.res)
			p.Await()
			o.a.ThenPs = int64(p.Now())
			ops = append(ops, o)
		}
		m.FlushCoalescedC(p.Cont(), 0, p.Wake())
		p.Await()
		for _, o := range ops {
			wait(p, o.res.Done)
			o.a.DonePs, o.a.Value = int64(p.Now()), describeCompletion(o.res.Done)
			o.a.Posted = hex.EncodeToString(o.posted)
			o.span.Finish(p.Now())
			o.a.Phases = describeSpan(o.span)
			row.Attempts = append(row.Attempts, o.a)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	finishRow(k, m, fr, base, &row)
	return row
}

// TestDMAEngineMatrix pins the DMA engine — every operation through
// every entry point into every admission outcome, on both RDMA
// transports — to what the tree with four descriptor types (c5415e3)
// did: the golden was recorded there, before the descriptors became one.
// Since, the rows of the deleted compare-swap and split-phase PUT have
// gone, and the doorbell frame's row (doorbell4, without those two) was
// recorded by the last tree that still had them. Regenerate only for a
// deliberate model change:
// `go test ./internal/transport -run TestDMAEngineMatrix -update`.
func TestDMAEngineMatrix(t *testing.T) {
	profiles := []struct {
		name string
		prof func() *Profile
	}{{"gm", GM}, {"lapi", LAPI}}
	forms := []struct {
		name  string
		start bool
	}{{"span", false}, {"start", true}}

	got := map[string]dmaRow{}
	for _, pr := range profiles {
		for _, f := range forms {
			for _, op := range dmaOps(f.start) {
				cell := pr.name + "/" + op.name + "/" + f.name + "/"
				for _, outcome := range []string{"served", "stale", "pinrefused"} {
					got[cell+outcome] = runDMACell(t, pr.prof(), op.call, outcome, false)
				}
				got[cell+"served+chaos"] = runDMACell(t, pr.prof(), op.call, "served", true)
			}
		}
		got[pr.name+"/doorbell4"] = runDMADoorbell(t, pr.prof())
	}

	if *updateDMAGolden {
		raw, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dmaGoldenFile, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(dmaGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]dmaRow{}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", dmaGoldenFile, err)
	}
	for key, row := range got {
		g, _ := json.Marshal(row)
		w, _ := json.Marshal(want[key])
		if _, ok := want[key]; !ok {
			t.Errorf("%s: no golden row", key)
		} else if string(g) != string(w) {
			t.Errorf("%s:\n got  %s\n want %s", key, g, w)
		}
	}
	if len(want) != len(got) {
		t.Errorf("%s has %d rows, the matrix has %d", dmaGoldenFile, len(want), len(got))
	}
}

// A descriptor to a region that was never registered, under
// pin-everything and at the right epoch, is a runtime bug: the engine
// panics and names the node and the region.
func TestDMAUnregisteredUnderPinAllPanics(t *testing.T) {
	for _, op := range dmaOps(false) {
		t.Run(op.name, func(t *testing.T) {
			k, m := newTestMachine(t, GM(), 2)
			base := m.Nodes[1].Mem.Alloc(dmaRegion)
			defer func() {
				msg := fmt.Sprint(recover())
				for _, want := range []string{"node 1", fmt.Sprintf("%#x", base), "pin-all"} {
					if !strings.Contains(msg, want) {
						t.Errorf("panic %q does not mention %q", msg, want)
					}
				}
			}()
			k.Spawn("initiator", func(p *sim.Proc) {
				var res RDMAResult
				op.call(m, p, base, m.Nodes[1].Epoch, nil, &res)
				p.Await()
			})
			_ = k.Run()
			t.Error("no panic")
		})
	}
}
