package mem

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"xlupc/internal/flight"
	"xlupc/internal/sim"
)

func TestAllocWriteRead(t *testing.T) {
	s := NewSpace(0)
	a := s.Alloc(100)
	if a == 0 {
		t.Fatal("allocated at nil address")
	}
	data := []byte("hello shared world")
	s.Write(a+10, data)
	got := s.ReadAlloc(a+10, len(data))
	if !bytes.Equal(got, data) {
		t.Fatalf("read %q, want %q", got, data)
	}
}

func TestAllocAlignmentAndRounding(t *testing.T) {
	s := NewSpace(0)
	a := s.Alloc(1)
	b := s.Alloc(65)
	if a%Align != 0 || b%Align != 0 {
		t.Fatalf("unaligned bases %#x %#x", a, b)
	}
	if s.SizeOf(a) != Align || s.SizeOf(b) != 2*Align {
		t.Fatalf("sizes %d %d", s.SizeOf(a), s.SizeOf(b))
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFreeReuseAddress(t *testing.T) {
	s := NewSpace(0)
	a := s.Alloc(256)
	s.Free(a)
	b := s.Alloc(256)
	if a != b {
		t.Fatalf("freed address %#x not reused (got %#x)", a, b)
	}
	// Fresh allocation must be zeroed even though the address recurs.
	if got := s.ReadAlloc(b, 4); !bytes.Equal(got, []byte{0, 0, 0, 0}) {
		t.Fatalf("recycled memory not zeroed: %v", got)
	}
}

func TestFreeSplitAndCoalesce(t *testing.T) {
	s := NewSpace(0)
	a := s.Alloc(128)
	b := s.Alloc(128)
	c := s.Alloc(128)
	s.Free(a)
	s.Free(c)
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	s.Free(b) // should coalesce all three
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	d := s.Alloc(384)
	if d != a {
		t.Fatalf("coalesced block not reused: got %#x want %#x", d, a)
	}
}

func TestDoubleFreePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s := NewSpace(0)
	a := s.Alloc(64)
	s.Free(a)
	s.Free(a)
}

func TestAccessFreedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s := NewSpace(0)
	a := s.Alloc(64)
	s.Free(a)
	s.Write(a, []byte{1})
}

func TestOutOfBoundsAccessPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s := NewSpace(0)
	a := s.Alloc(64)
	s.Write(a+60, []byte{1, 2, 3, 4, 5, 6, 7, 8})
}

func TestCrossSegmentAccessPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s := NewSpace(0)
	a := s.Alloc(64)
	s.Alloc(64)
	var buf [128]byte
	s.Read(buf[:], a)
}

// Property: random alloc/free/write sequences keep invariants and data
// integrity (each live allocation holds exactly what was written).
func TestPropertyAllocatorIntegrity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewSpace(0)
		type live struct {
			base Addr
			data []byte
		}
		var lives []live
		for op := 0; op < 300; op++ {
			switch {
			case len(lives) == 0 || rng.Intn(3) > 0:
				n := rng.Intn(500) + 1
				base := s.Alloc(n)
				data := make([]byte, n)
				rng.Read(data)
				s.Write(base, data)
				lives = append(lives, live{base, data})
			default:
				i := rng.Intn(len(lives))
				s.Free(lives[i].base)
				lives = append(lives[:i], lives[i+1:]...)
			}
			if err := s.CheckInvariants(); err != nil {
				t.Logf("invariant: %v", err)
				return false
			}
		}
		for _, l := range lives {
			if !bytes.Equal(s.ReadAlloc(l.base, len(l.data)), l.data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// recordingTable is a node-0 pin table with a flight recorder of its
// own, as a machine's tables have: its evictions, parks and reuse hits
// are counted there.
func recordingTable(model CostModel, policy PinPolicy) *PinTable {
	pt := NewPinTable(0, model, policy)
	pt.SetFlightRecorder(flight.New(1))
	return pt
}

// recorded is how many events of kind k pt's flight recorder holds for
// its node: the count of its evictions, parks or reuse hits.
func recorded(pt *PinTable, k flight.Kind) int64 { return pt.fr.OfNode(pt.node, k) }

func testModel() CostModel {
	return CostModel{
		RegBase: 10 * sim.Us, RegPerPage: 1 * sim.Us,
		DeregBase: 20 * sim.Us, DeregPerPage: 2 * sim.Us,
		MaxPerObject: 32 << 20, MaxTotal: 1 << 30,
	}
}

func TestPinCostAndIdempotence(t *testing.T) {
	pt := NewPinTable(0, testModel(), PinAll)
	cost, err := pt.Pin(0x1000, 2*PageSize, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cost != 12*sim.Us {
		t.Fatalf("cost = %v, want 12us", cost)
	}
	cost2, err := pt.Pin(0x1000, 2*PageSize, 0, 5)
	if err != nil || cost2 != 0 {
		t.Fatalf("re-pin cost=%v err=%v, want free", cost2, err)
	}
	if pt.TotalPinned() != 2*PageSize || pt.Live() != 1 || pt.Pins != 1 {
		t.Fatalf("table state: total=%d live=%d pins=%d", pt.TotalPinned(), pt.Live(), pt.Pins)
	}
}

func TestPinPartialPageRoundsUp(t *testing.T) {
	m := testModel()
	if m.RegCost(1) != m.RegBase+m.RegPerPage {
		t.Fatalf("1-byte registration should cost one page")
	}
	if m.RegCost(PageSize+1) != m.RegBase+2*m.RegPerPage {
		t.Fatalf("page+1 registration should cost two pages")
	}
}

func TestPinPerObjectLimit(t *testing.T) {
	pt := NewPinTable(0, testModel(), PinAll)
	_, err := pt.Pin(0x1000, 33<<20, 0, 0)
	if err == nil {
		t.Fatal("expected per-object limit error")
	}
	if _, ok := err.(*ErrPinLimit); !ok {
		t.Fatalf("err type %T", err)
	}
}

func TestPinAllTotalLimitFails(t *testing.T) {
	m := testModel()
	m.MaxTotal = 10 * PageSize
	m.MaxPerObject = 0
	pt := NewPinTable(0, m, PinAll)
	if _, err := pt.Pin(0x1000, 8*PageSize, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := pt.Pin(0x9000, 4*PageSize, 0, 1); err == nil {
		t.Fatal("expected total limit error under PinAll")
	}
	// Unpin deregisters at once: the freed room takes the same pin, and
	// a pin past what is left fails again.
	if c := pt.Unpin(0x1000, 2); c != m.DeregCost(8*PageSize) {
		t.Fatalf("unpin charged %v, want %v", c, m.DeregCost(8*PageSize))
	}
	if _, err := pt.Pin(0x9000, 4*PageSize, 0, 3); err != nil {
		t.Fatalf("pin after unpin: %v", err)
	}
	if _, err := pt.Pin(0x20000, 8*PageSize, 0, 4); err == nil {
		t.Fatal("PinAll exceeded the budget after an unpin")
	}
}

func TestPinLimitedEvictsLRU(t *testing.T) {
	m := testModel()
	m.MaxTotal = 10 * PageSize
	m.MaxPerObject = 0
	pt := recordingTable(m, PinLimited)
	if _, err := pt.Pin(0x1000, 4*PageSize, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := pt.Pin(0x9000, 4*PageSize, 0, 1); err != nil {
		t.Fatal(err)
	}
	pt.Touch(0x1000, 2) // make 0x9000 the LRU
	cost, err := pt.Pin(0x20000, 4*PageSize, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	wantEvict := m.DeregCost(4 * PageSize)
	wantReg := m.RegCost(4 * PageSize)
	if cost != wantEvict+wantReg {
		t.Fatalf("cost = %v, want %v", cost, wantEvict+wantReg)
	}
	if pt.IsPinned(0x9000) {
		t.Fatal("LRU region not evicted")
	}
	if !pt.IsPinned(0x1000) || !pt.IsPinned(0x20000) {
		t.Fatal("wrong victim chosen")
	}
	if recorded(pt, flight.KindPinEvict) != 1 {
		t.Fatalf("evicted = %d", recorded(pt, flight.KindPinEvict))
	}
}

func TestUnpin(t *testing.T) {
	pt := NewPinTable(0, testModel(), PinAll)
	if _, err := pt.Pin(0x1000, PageSize, 0, 0); err != nil {
		t.Fatal(err)
	}
	cost := pt.Unpin(0x1000, 0)
	if cost != testModel().DeregCost(PageSize) {
		t.Fatalf("unpin cost %v", cost)
	}
	if pt.IsPinned(0x1000) || pt.TotalPinned() != 0 {
		t.Fatal("unpin did not remove entry")
	}
	if pt.Unpin(0x1000, 0) != 0 {
		t.Fatal("unpin of unpinned region should be free")
	}
}

func TestTouchUnpinnedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	pt := NewPinTable(0, testModel(), PinAll)
	pt.Touch(0x1000, 0)
}

// Property: under PinLimited with random pin sizes, total pinned never
// exceeds MaxTotal and entry count tracks the map.
func TestPropertyPinLimitedBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := testModel()
		m.MaxTotal = 64 * PageSize
		m.MaxPerObject = 32 * PageSize
		pt := NewPinTable(0, m, PinLimited)
		for i := 0; i < 200; i++ {
			base := Addr((i + 1) * 0x10000)
			size := (rng.Intn(40) + 1) * PageSize
			_, err := pt.Pin(base, size, 0, sim.Time(i))
			if size > m.MaxPerObject {
				if err == nil {
					return false
				}
				continue
			}
			if err != nil {
				return false
			}
			if pt.TotalPinned() > m.MaxTotal {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSpaceAccounting(t *testing.T) {
	s := NewSpace(3)
	if s.Node() != 3 {
		t.Fatal("node id wrong")
	}
	a := s.Alloc(100) // rounds to 128
	b := s.Alloc(64)
	if s.LiveBytes() != 192 || s.Allocs() != 2 || s.Frees() != 0 {
		t.Fatalf("accounting: live=%d allocs=%d frees=%d", s.LiveBytes(), s.Allocs(), s.Frees())
	}
	if !s.Live(a) || !s.Live(b) || s.Live(a+1) {
		t.Fatal("Live() wrong")
	}
	s.Free(a)
	if s.LiveBytes() != 64 || s.Frees() != 1 {
		t.Fatalf("after free: live=%d frees=%d", s.LiveBytes(), s.Frees())
	}
}

func TestSizeOfUnallocatedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSpace(0).SizeOf(0x40)
}

func TestErrPinLimitMessage(t *testing.T) {
	e := &ErrPinLimit{Base: 0x40, Size: 100, Reason: "too big", Limit: 50}
	if !strings.Contains(e.Error(), "too big") || !strings.Contains(e.Error(), "100") {
		t.Fatalf("message %q", e.Error())
	}
}

func TestPinPolicyString(t *testing.T) {
	if PinAll.String() != "pin-all" || PinLimited.String() != "pin-limited" {
		t.Fatal("policy names wrong")
	}
}

func TestPinTablePolicyAccessor(t *testing.T) {
	if NewPinTable(0, testModel(), PinLimited).Policy() != PinLimited {
		t.Fatal("policy accessor wrong")
	}
}

func TestPinTimeAccounting(t *testing.T) {
	pt := NewPinTable(0, testModel(), PinAll)
	c1, err := pt.Pin(0x1000, 2*PageSize, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pt.RegTime != c1 {
		t.Fatalf("RegTime = %v, want %v", pt.RegTime, c1)
	}
	// Idempotent re-pin accrues nothing.
	if _, err := pt.Pin(0x1000, 2*PageSize, 0, 5); err != nil || pt.RegTime != c1 {
		t.Fatalf("re-pin changed RegTime to %v", pt.RegTime)
	}
	dc := pt.Unpin(0x1000, 0)
	if dc == 0 || pt.DeregTime != dc {
		t.Fatalf("DeregTime = %v, want %v", pt.DeregTime, dc)
	}
	if pt.Unpin(0x1000, 0) != 0 || pt.DeregTime != dc {
		t.Fatalf("double unpin accrued time: %v", pt.DeregTime)
	}
}

func TestPinLimitedEvictionTimeAccounting(t *testing.T) {
	m := testModel()
	m.MaxTotal = 2 * PageSize
	pt := recordingTable(m, PinLimited)
	if _, err := pt.Pin(0x1000, PageSize, 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := pt.Pin(0x2000, PageSize, 2, 1); err != nil {
		t.Fatal(err)
	}
	before := pt.DeregTime
	// Third pin evicts both LRU entries; their deregistration time must
	// be accounted even though no explicit Unpin happened.
	if _, err := pt.Pin(0x3000, 2*PageSize, 3, 2); err != nil {
		t.Fatal(err)
	}
	if recorded(pt, flight.KindPinEvict) != 2 {
		t.Fatalf("evicted = %d, want 2", recorded(pt, flight.KindPinEvict))
	}
	want := 2 * m.DeregCost(PageSize)
	if pt.DeregTime-before != want {
		t.Fatalf("eviction DeregTime = %v, want %v", pt.DeregTime-before, want)
	}
}

// Back-to-back over-limit pins must each pay their own eviction chain:
// a Pin that evicts mid-call charges the victim's deregistration, and a
// second over-limit Pin immediately after does it all again.
func TestPinLimitedBackToBackEvictionsAtTotalLimit(t *testing.T) {
	m := testModel()
	m.MaxTotal = 2 * PageSize
	pt := recordingTable(m, PinLimited)
	if _, err := pt.Pin(0x1000, 2*PageSize, 1, 0); err != nil {
		t.Fatal(err)
	}
	want := m.DeregCost(2*PageSize) + m.RegCost(2*PageSize)
	for i := 0; i < 3; i++ {
		base := Addr(0x2000 + i*0x1000)
		cost, err := pt.Pin(base, 2*PageSize, uint64(2+i), sim.Time(1+i))
		if err != nil {
			t.Fatalf("pin %d: %v", i, err)
		}
		if cost != want {
			t.Fatalf("pin %d cost = %v, want %v (eviction + registration)", i, cost, want)
		}
		if pt.TotalPinned() != 2*PageSize || pt.Live() != 1 {
			t.Fatalf("pin %d: total=%d live=%d", i, pt.TotalPinned(), pt.Live())
		}
	}
	if recorded(pt, flight.KindPinEvict) != 3 {
		t.Fatalf("evicted = %d, want 3", recorded(pt, flight.KindPinEvict))
	}
	if pt.DeregTime != 3*m.DeregCost(2*PageSize) {
		t.Fatalf("DeregTime = %v, want %v", pt.DeregTime, 3*m.DeregCost(2*PageSize))
	}
}

// Regression: when an over-large request drains the whole table and
// still cannot fit, the deregistrations it performed are real — the
// returned cost must match the DeregTime the table accrued, not zero.
func TestPinLimitedErrorReturnsEvictionCost(t *testing.T) {
	m := testModel()
	m.MaxTotal = 2 * PageSize
	m.MaxPerObject = 0
	pt := NewPinTable(0, m, PinLimited)
	if _, err := pt.Pin(0x1000, PageSize, 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := pt.Pin(0x2000, PageSize, 2, 1); err != nil {
		t.Fatal(err)
	}
	cost, err := pt.Pin(0x3000, 4*PageSize, 3, 2)
	if err == nil {
		t.Fatal("expected total-limit error")
	}
	if _, ok := err.(*ErrPinLimit); !ok {
		t.Fatalf("err type %T", err)
	}
	want := 2 * m.DeregCost(PageSize)
	if cost != want {
		t.Fatalf("error-path cost = %v, want %v (two evictions happened)", cost, want)
	}
	if pt.DeregTime != want {
		t.Fatalf("DeregTime = %v, want %v", pt.DeregTime, want)
	}
	if pt.Live() != 0 || pt.TotalPinned() != 0 {
		t.Fatalf("table not drained: live=%d total=%d", pt.Live(), pt.TotalPinned())
	}
}

func TestPinTableReset(t *testing.T) {
	pt := NewPinTable(0, testModel(), PinAll)
	if _, err := pt.Pin(0x1000, PageSize, 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := pt.Pin(0x2000, 2*PageSize, 2, 1); err != nil {
		t.Fatal(err)
	}
	reg := pt.RegTime
	if n := pt.Reset(); n != 2 {
		t.Fatalf("reset dropped %d, want 2", n)
	}
	if pt.Live() != 0 || pt.TotalPinned() != 0 || pt.IsPinned(0x1000) {
		t.Fatal("reset left registrations behind")
	}
	// A crash loses state instantly: no deregistration time, and the
	// cumulative counters describing past work survive.
	if pt.DeregTime != 0 {
		t.Fatalf("reset charged DeregTime %v", pt.DeregTime)
	}
	if pt.Pins != 2 || pt.RegTime != reg {
		t.Fatalf("reset clobbered cumulative counters: pins=%d regtime=%v", pt.Pins, pt.RegTime)
	}
	if n := pt.Reset(); n != 0 {
		t.Fatalf("second reset dropped %d, want 0", n)
	}
	// The table is immediately usable again.
	if _, err := pt.Pin(0x1000, PageSize, 1, 2); err != nil {
		t.Fatal(err)
	}
	if pt.Live() != 1 || pt.Pins != 3 {
		t.Fatalf("post-reset pin: live=%d pins=%d", pt.Live(), pt.Pins)
	}
}

func TestSpaceAtOrigin(t *testing.T) {
	s := NewSpaceAt(0, 10*Align)
	if s.Origin() != 10*Align {
		t.Fatalf("origin = %#x", s.Origin())
	}
	a := s.Alloc(16)
	if a != 10*Align {
		t.Fatalf("first alloc at %#x, want the origin", a)
	}
	b := s.Alloc(Align)
	s.Free(a)
	s.Free(b)
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The default constructor is the origin-Align special case.
	if d := NewSpace(1); d.Origin() != Align || d.Alloc(1) != Align {
		t.Fatal("NewSpace no longer starts at Align")
	}
}

func TestSpaceAtBadOriginPanics(t *testing.T) {
	for _, origin := range []Addr{0, Align / 2, Align + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("origin %#x accepted", origin)
				}
			}()
			NewSpaceAt(0, origin)
		}()
	}
}

// A Read or Write whose slice is a View of the very range it moves
// leaves the bytes as they are (Go's copy moves nothing when the two
// slices start at one address: the compiler guards its memmove with
// that compare); one whose slice only partly overlaps the range still
// moves them, as memmove would.
func TestReadWriteThroughOwnView(t *testing.T) {
	s := NewSpace(0)
	a := s.Alloc(64)
	want := []byte("0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ!?")
	s.Write(a, want)
	v := s.View(a, 64)
	s.Read(v, a)
	s.Write(a, v)
	if !bytes.Equal(s.ReadAlloc(a, 64), want) {
		t.Fatalf("aliased Read/Write changed the bytes: %q", s.ReadAlloc(a, 64))
	}

	// Forward: the destination starts inside the source.
	s.Write(a+8, v[:32])
	fwd := append(append(append([]byte{}, want[:8]...), want[:32]...), want[40:]...)
	if got := s.ReadAlloc(a, 64); !bytes.Equal(got, fwd) {
		t.Fatalf("overlapping Write: got %q, want %q", got, fwd)
	}
	// Backward: the source starts inside the destination.
	s.Write(a, want)
	s.Read(v[:32], a+8)
	back := append(append([]byte{}, want[8:40]...), want[32:]...)
	if got := s.ReadAlloc(a, 64); !bytes.Equal(got, back) {
		t.Fatalf("overlapping Read: got %q, want %q", got, back)
	}
}
