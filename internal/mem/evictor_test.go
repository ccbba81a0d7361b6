package mem

import (
	"reflect"
	"runtime"
	"testing"

	"xlupc/internal/flight"
	"xlupc/internal/sim"
)

// Regression: re-pinning an already-pinned base at a different size
// must not be treated as a free hit — the NIC handle covers the wrong
// extent. The stale registration is torn down and the region registered
// afresh, with both costs charged.
func TestPinSizeMismatchRepins(t *testing.T) {
	m := testModel()
	pt := NewPinTable(0, m, PinAll)
	if _, err := pt.Pin(0x1000, PageSize, 1, 0); err != nil {
		t.Fatal(err)
	}
	cost, err := pt.Pin(0x1000, 3*PageSize, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := m.DeregCost(PageSize) + m.RegCost(3*PageSize)
	if cost != want {
		t.Fatalf("size-mismatch re-pin cost = %v, want %v (dereg old + reg new)", cost, want)
	}
	if pt.Repins != 1 {
		t.Fatalf("Repins = %d, want 1", pt.Repins)
	}
	if pt.TotalPinned() != 3*PageSize || pt.Live() != 1 {
		t.Fatalf("table state: total=%d live=%d", pt.TotalPinned(), pt.Live())
	}
	// Same-size re-pin stays free.
	if c, err := pt.Pin(0x1000, 3*PageSize, 1, 2); err != nil || c != 0 {
		t.Fatalf("same-size re-pin cost=%v err=%v", c, err)
	}
	if pt.Repins != 1 {
		t.Fatalf("same-size re-pin bumped Repins to %d", pt.Repins)
	}
}

func TestEvictorKindParseAndString(t *testing.T) {
	for _, tc := range []struct {
		s    string
		k    EvictorKind
		name string
	}{
		{"lru", EvictLRU, "lru"},
		{"", EvictLRU, "lru"},
		{"clock", EvictClock, "clock"},
		{"cost", EvictCost, "cost"},
	} {
		k, err := ParseEvictor(tc.s)
		if err != nil || k != tc.k {
			t.Fatalf("ParseEvictor(%q) = %v, %v", tc.s, k, err)
		}
		if tc.k.String() != tc.name || tc.k.New(testModel()).Name() != tc.name {
			t.Fatalf("kind %v names inconsistent", tc.k)
		}
	}
	if _, err := ParseEvictor("mru"); err == nil {
		t.Fatal("ParseEvictor accepted an unknown policy")
	}
}

// CLOCK gives referenced entries a second chance: the touched region
// survives while the untouched one of the same age is evicted.
func TestClockSecondChance(t *testing.T) {
	m := testModel()
	m.MaxTotal = 2 * PageSize
	pt := NewPinTable(0, m, PinLimited)
	pt.SetEvictor(NewClockEvictor())
	if _, err := pt.Pin(0x1000, PageSize, 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := pt.Pin(0x2000, PageSize, 2, 1); err != nil {
		t.Fatal(err)
	}
	if !pt.TouchOK(0x1000, 2) { // sets 0x1000's reference bit
		t.Fatal("touch of live region failed")
	}
	if _, err := pt.Pin(0x3000, PageSize, 3, 3); err != nil {
		t.Fatal(err)
	}
	if !pt.IsPinned(0x1000) || pt.IsPinned(0x2000) || !pt.IsPinned(0x3000) {
		t.Fatalf("second chance failed: 0x1000=%v 0x2000=%v 0x3000=%v",
			pt.IsPinned(0x1000), pt.IsPinned(0x2000), pt.IsPinned(0x3000))
	}
}

// Removing the entry the CLOCK hand points at must advance the hand,
// not leave it dangling.
func TestClockHandSurvivesRemoval(t *testing.T) {
	m := testModel()
	m.MaxTotal = 3 * PageSize
	pt := NewPinTable(0, m, PinLimited)
	pt.SetEvictor(NewClockEvictor())
	for i, base := range []Addr{0x1000, 0x2000, 0x3000} {
		if _, err := pt.Pin(base, PageSize, uint64(i), sim.Time(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Evict once so the hand moves off the head, then unpin the entry it
	// points at and force another eviction.
	if _, err := pt.Pin(0x4000, PageSize, 4, 3); err != nil {
		t.Fatal(err)
	}
	pt.Unpin(0x2000, 4)
	if _, err := pt.Pin(0x5000, PageSize, 5, 5); err != nil {
		t.Fatal(err)
	}
	if pt.Live() != 3 {
		t.Fatalf("live = %d, want 3", pt.Live())
	}
}

// The cost-aware policy evicts the cheap-to-deregister region when idle
// times tie: sacrificing a one-page handle costs less NIC time than a
// four-page one.
func TestCostEvictorPrefersCheapDereg(t *testing.T) {
	m := testModel()
	m.MaxTotal = 5 * PageSize
	pt := NewPinTable(0, m, PinLimited)
	pt.SetEvictor(NewCostEvictor(m))
	if _, err := pt.Pin(0x1000, PageSize, 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := pt.Pin(0x8000, 4*PageSize, 2, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := pt.Pin(0x20000, PageSize, 3, 1); err != nil {
		t.Fatal(err)
	}
	if pt.IsPinned(0x1000) || !pt.IsPinned(0x8000) {
		t.Fatal("cost policy did not sacrifice the cheap one-page region")
	}
}

// Ghost-list protection: a base that comes back after eviction returns
// protected, and once the whole table is protected further pins degrade
// to an error (the caller's AM fallback) instead of sacrificing the
// proven working set — until the stuck limit demotes it.
func TestCostGhostProtectionDegradesGracefully(t *testing.T) {
	m := testModel()
	m.MaxTotal = 2 * PageSize
	pt := recordingTable(m, PinLimited)
	pt.SetEvictor(NewCostEvictor(m))
	pin := func(base Addr, now sim.Time) error {
		_, err := pt.Pin(base, PageSize, uint64(base), now)
		return err
	}
	if err := pin(0xA000, 0); err != nil {
		t.Fatal(err)
	}
	if err := pin(0xB000, 1); err != nil {
		t.Fatal(err)
	}
	if err := pin(0xC000, 2); err != nil { // evicts 0xA000 -> ghost
		t.Fatal(err)
	}
	if err := pin(0xA000, 3); err != nil { // ghost hit: A comes back protected
		t.Fatal(err)
	}
	if err := pin(0xB000, 4); err != nil { // ghost hit: B comes back protected
		t.Fatal(err)
	}
	if pt.GhostHits != 2 {
		t.Fatalf("GhostHits = %d, want 2", pt.GhostHits)
	}
	if !pt.IsPinned(0xA000) || !pt.IsPinned(0xB000) {
		t.Fatal("protected set not resident")
	}
	// Both residents are protected: new pins are refused (AM fallback)
	// rather than thrashing the working set...
	evicted := recorded(pt, flight.KindPinEvict)
	for i := 0; i < costStuckLimit-1; i++ {
		if err := pin(0xD000, sim.Time(5+i)); err == nil {
			t.Fatalf("pin %d succeeded against a fully protected table", i)
		}
	}
	if recorded(pt, flight.KindPinEvict) != evicted || !pt.IsPinned(0xA000) || !pt.IsPinned(0xB000) {
		t.Fatal("protected set was sacrificed")
	}
	// ...until the stuck limit concludes the protected set is stale and
	// demotes it.
	if err := pin(0xD000, 100); err != nil {
		t.Fatalf("pin after stuck limit: %v", err)
	}
	if recorded(pt, flight.KindPinEvict) != evicted+1 {
		t.Fatalf("Evicted = %d, want %d", recorded(pt, flight.KindPinEvict), evicted+1)
	}
}

// Lazy unpinning parks the registration and revives it for free.
func TestLazyUnpinParkRevive(t *testing.T) {
	m := testModel()
	pt := recordingTable(m, PinAll)
	pt.SetLazyUnpin(true)
	if _, err := pt.Pin(0x1000, PageSize, 1, 0); err != nil {
		t.Fatal(err)
	}
	if c := pt.Unpin(0x1000, 1); c != 0 {
		t.Fatalf("lazy unpin charged %v, want 0 (parked)", c)
	}
	if pt.Dead() != 1 || recorded(pt, flight.KindPinPark) != 1 || pt.IsPinned(0x1000) {
		t.Fatalf("park state: dead=%d parked=%d pinned=%v", pt.Dead(), recorded(pt, flight.KindPinPark), pt.IsPinned(0x1000))
	}
	if pt.TotalPinned() != PageSize {
		t.Fatalf("parked bytes left the NIC: total=%d", pt.TotalPinned())
	}
	c, err := pt.Pin(0x1000, PageSize, 1, 2)
	if err != nil || c != 0 {
		t.Fatalf("revive cost=%v err=%v, want free", c, err)
	}
	if recorded(pt, flight.KindPinReuse) != 1 || pt.Dead() != 0 || !pt.IsPinned(0x1000) {
		t.Fatalf("revive state: reuses=%d dead=%d pinned=%v", recorded(pt, flight.KindPinReuse), pt.Dead(), pt.IsPinned(0x1000))
	}
	// A parked region re-pinned at a different size is worthless: the
	// old handle is reclaimed and the region registered afresh.
	pt.Unpin(0x1000, 3)
	c, err = pt.Pin(0x1000, 2*PageSize, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if want := m.DeregCost(PageSize) + m.RegCost(2*PageSize); c != want {
		t.Fatalf("size-mismatched revive cost=%v, want %v", c, want)
	}
	if pt.Reclaims != 1 {
		t.Fatalf("Reclaims = %d, want 1", pt.Reclaims)
	}
}

// The dead-list is bounded: parking beyond DefaultLazyEntries reclaims
// the oldest parked registration, charging its deregistration then.
func TestLazyDeadListBounded(t *testing.T) {
	m := testModel()
	pt := NewPinTable(0, m, PinAll)
	pt.SetLazyUnpin(true)
	base := func(i int) Addr { return Addr(0x1000 * (i + 1)) }
	for i := 0; i <= DefaultLazyEntries; i++ {
		if _, err := pt.Pin(base(i), PageSize, uint64(i), sim.Time(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < DefaultLazyEntries; i++ {
		if c := pt.Unpin(base(i), sim.Time(100+i)); c != 0 {
			t.Fatalf("park %d charged %v", i, c)
		}
	}
	c := pt.Unpin(base(DefaultLazyEntries), 200)
	if want := m.DeregCost(PageSize); c != want {
		t.Fatalf("overflow park charged %v, want %v (oldest reclaimed)", c, want)
	}
	if pt.Dead() != DefaultLazyEntries || pt.Reclaims != 1 {
		t.Fatalf("dead=%d reclaims=%d", pt.Dead(), pt.Reclaims)
	}
	// The one reclaimed was parked first: re-pinning it pays in full,
	// re-pinning the next one is a free reuse.
	if c, _ := pt.Pin(base(0), PageSize, 0, 300); c == 0 {
		t.Fatal("oldest parked registration was not the one reclaimed")
	}
	if c, _ := pt.Pin(base(1), PageSize, 1, 301); c != 0 {
		t.Fatalf("second-oldest parked registration re-pinned at cost %v, want a free reuse", c)
	}
}

// Budget pressure reclaims parked registrations (oldest first) before
// sacrificing any live region.
func TestLazyReclaimBeforeEviction(t *testing.T) {
	m := testModel()
	m.MaxTotal = 2 * PageSize
	pt := recordingTable(m, PinLimited)
	pt.SetLazyUnpin(true)
	if _, err := pt.Pin(0x1000, PageSize, 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := pt.Pin(0x2000, PageSize, 2, 1); err != nil {
		t.Fatal(err)
	}
	pt.Unpin(0x1000, 2) // parked; NIC still holds both pages
	cost, err := pt.Pin(0x3000, PageSize, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if want := m.DeregCost(PageSize) + m.RegCost(PageSize); cost != want {
		t.Fatalf("cost = %v, want %v (reclaim parked + register)", cost, want)
	}
	if recorded(pt, flight.KindPinEvict) != 0 || pt.Reclaims != 1 || !pt.IsPinned(0x2000) {
		t.Fatalf("live region sacrificed: evicted=%d reclaims=%d", recorded(pt, flight.KindPinEvict), pt.Reclaims)
	}
}

// PinAll with lazy unpinning reclaims parked registrations before
// declaring the budget exhausted.
func TestPinAllLazyReclaimBeforeError(t *testing.T) {
	m := testModel()
	m.MaxTotal = 2 * PageSize
	pt := NewPinTable(0, m, PinAll)
	pt.SetLazyUnpin(true)
	if _, err := pt.Pin(0x1000, PageSize, 1, 0); err != nil {
		t.Fatal(err)
	}
	pt.Unpin(0x1000, 1)
	if _, err := pt.Pin(0x8000, 2*PageSize, 2, 2); err != nil {
		t.Fatalf("pin after reclaim: %v", err)
	}
	if pt.Reclaims != 1 {
		t.Fatalf("Reclaims = %d, want 1", pt.Reclaims)
	}
	if _, err := pt.Pin(0x20000, PageSize, 3, 3); err == nil {
		t.Fatal("PinAll exceeded budget with nothing left to reclaim")
	}
}

// A crash drops parked registrations instantly and free of charge.
func TestResetDropsParkedFree(t *testing.T) {
	pt := NewPinTable(0, testModel(), PinAll)
	pt.SetLazyUnpin(true)
	if _, err := pt.Pin(0x1000, PageSize, 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := pt.Pin(0x2000, PageSize, 2, 1); err != nil {
		t.Fatal(err)
	}
	pt.Unpin(0x1000, 2)
	dereg := pt.DeregTime
	if n := pt.Reset(); n != 2 {
		t.Fatalf("reset dropped %d, want 2 (one live + one parked)", n)
	}
	if pt.Dead() != 0 || pt.TotalPinned() != 0 || pt.DeregTime != dereg {
		t.Fatalf("reset state: dead=%d total=%d dereg=%v", pt.Dead(), pt.TotalPinned(), pt.DeregTime)
	}
	// Table usable again; the dead-list too.
	if _, err := pt.Pin(0x1000, PageSize, 1, 3); err != nil {
		t.Fatal(err)
	}
	pt.Unpin(0x1000, 4)
	if pt.Dead() != 1 {
		t.Fatalf("post-reset park failed: dead=%d", pt.Dead())
	}
}

// recordingEvictor wraps a policy and logs the victim sequence.
type recordingEvictor struct {
	inner   Evictor
	victims []Addr
}

func (r *recordingEvictor) Name() string            { return r.inner.Name() }
func (r *recordingEvictor) Insert(e *PinEntry) bool { return r.inner.Insert(e) }
func (r *recordingEvictor) Touch(e *PinEntry)       { r.inner.Touch(e) }
func (r *recordingEvictor) Remove(e *PinEntry)      { r.inner.Remove(e) }
func (r *recordingEvictor) Evicted(e *PinEntry)     { r.inner.Evicted(e) }
func (r *recordingEvictor) Reset()                  { r.inner.Reset() }
func (r *recordingEvictor) Victim(now sim.Time) *PinEntry {
	v := r.inner.Victim(now)
	if v != nil {
		r.victims = append(r.victims, v.Base)
	}
	return v
}

// evictorChurn drives one scripted alloc/touch/unpin storm and returns
// the victim sequence plus the table's counter fingerprint.
func evictorChurn(kind EvictorKind, lazy bool) ([]Addr, []int64, sim.Time) {
	m := testModel()
	m.MaxTotal = 8 * PageSize
	m.MaxPerObject = 0
	pt := recordingTable(m, PinLimited)
	rec := &recordingEvictor{inner: kind.New(m)}
	pt.SetEvictor(rec)
	if lazy {
		pt.SetLazyUnpin(true)
	}
	x := uint64(0x9E3779B97F4A7C15)
	next := func(n uint64) uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x % n
	}
	for i := 0; i < 400; i++ {
		base := Addr(0x1000 * (1 + next(24)))
		now := sim.Time(i)
		switch next(5) {
		case 0:
			pt.Unpin(base, now)
		case 1:
			pt.TouchOK(base, now)
		default:
			size := int(1+next(3)) * PageSize
			pt.Pin(base, size, uint64(base), now) // limit errors are part of the script
		}
	}
	counters := []int64{pt.Pins, pt.Unpins, recorded(pt, flight.KindPinEvict), recorded(pt, flight.KindPinReuse), recorded(pt, flight.KindPinPark), pt.Reclaims, pt.GhostHits, pt.Repins}
	return rec.victims, counters, pt.DeregTime
}

// Determinism property: for every policy, the same churn script yields
// the identical victim sequence, counters and deregistration time on
// every run and under any GOMAXPROCS setting — no map-iteration-order
// or scheduler dependence.
func TestEvictorDeterminism(t *testing.T) {
	for _, kind := range []EvictorKind{EvictLRU, EvictClock, EvictCost} {
		for _, lazy := range []bool{false, true} {
			v0, c0, d0 := evictorChurn(kind, lazy)
			if len(v0) == 0 {
				t.Fatalf("%v lazy=%v: churn produced no evictions — script too gentle", kind, lazy)
			}
			for rep := 0; rep < 3; rep++ {
				prev := runtime.GOMAXPROCS(1 + rep*3)
				v, c, d := evictorChurn(kind, lazy)
				runtime.GOMAXPROCS(prev)
				if !reflect.DeepEqual(v0, v) {
					t.Fatalf("%v lazy=%v rep %d: victim sequence diverged", kind, lazy, rep)
				}
				if !reflect.DeepEqual(c0, c) || d0 != d {
					t.Fatalf("%v lazy=%v rep %d: counters diverged: %v/%v vs %v/%v", kind, lazy, rep, c0, d0, c, d)
				}
			}
		}
	}
}

// Satellite guard: victim selection must stay O(1)-ish per eviction.
// Before the intrusive recency list, every eviction scanned the whole
// entry map; this benchmark makes that regression obvious.
func BenchmarkEvictionStorm(b *testing.B) {
	for _, kind := range []EvictorKind{EvictLRU, EvictClock, EvictCost} {
		b.Run(kind.String(), func(b *testing.B) {
			m := testModel()
			m.MaxTotal = 256 * PageSize
			m.MaxPerObject = 0
			pt := NewPinTable(0, m, PinLimited)
			pt.SetEvictor(kind.New(m))
			for i := 0; i < 256; i++ {
				if _, err := pt.Pin(Addr(0x1000*(i+1)), PageSize, uint64(i), sim.Time(i)); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				base := Addr(0x1000 * (257 + i))
				if _, err := pt.Pin(base, PageSize, uint64(i), sim.Time(256+i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
