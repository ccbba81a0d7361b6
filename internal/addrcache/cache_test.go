package addrcache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"xlupc/internal/mem"
)

func key(h uint64, n int32) Key { return Key{Handle: h, Node: n} }

func TestLookupMissThenHit(t *testing.T) {
	c := New(10, LRU, 1)
	if _, ok := c.Lookup(key(1, 2)); ok {
		t.Fatal("hit on empty cache")
	}
	c.Insert(key(1, 2), 0x1000)
	a, ok := c.Lookup(key(1, 2))
	if !ok || a != 0x1000 {
		t.Fatalf("lookup = %#x,%v", a, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Inserts != 1 {
		t.Fatalf("stats %+v", st)
	}
	if st.HitRate() != 0.5 {
		t.Fatalf("hit rate %v", st.HitRate())
	}
}

func TestSameHandleDifferentNodes(t *testing.T) {
	c := New(10, LRU, 1)
	c.Insert(key(7, 0), 0xA0)
	c.Insert(key(7, 1), 0xB0)
	a, _ := c.Lookup(key(7, 0))
	b, _ := c.Lookup(key(7, 1))
	if a != 0xA0 || b != 0xB0 {
		t.Fatalf("entries collided: %#x %#x", a, b)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(2, LRU, 1)
	c.Insert(key(1, 0), 1)
	c.Insert(key(2, 0), 2)
	c.Lookup(key(1, 0)) // make key 2 the LRU
	c.Insert(key(3, 0), 3)
	if _, ok := c.Lookup(key(2, 0)); ok {
		t.Fatal("LRU entry survived eviction")
	}
	if _, ok := c.Lookup(key(1, 0)); !ok {
		t.Fatal("MRU entry evicted")
	}
	if c.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d", c.Stats().Evictions)
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
}

func TestInsertExistingUpdates(t *testing.T) {
	c := New(2, LRU, 1)
	c.Insert(key(1, 0), 1)
	c.Insert(key(1, 0), 99)
	a, _ := c.Lookup(key(1, 0))
	if a != 99 {
		t.Fatalf("addr = %v, want 99", a)
	}
	if c.Len() != 1 || c.Stats().Inserts != 1 {
		t.Fatalf("len=%d inserts=%d", c.Len(), c.Stats().Inserts)
	}
}

func TestZeroCapacityNeverStores(t *testing.T) {
	c := New(0, LRU, 1)
	c.Insert(key(1, 0), 1)
	if c.Len() != 0 {
		t.Fatal("zero-capacity cache stored an entry")
	}
	if _, ok := c.Lookup(key(1, 0)); ok {
		t.Fatal("zero-capacity cache hit")
	}
}

func TestUnboundedCapacity(t *testing.T) {
	c := New(-1, LRU, 1)
	for i := 0; i < 1000; i++ {
		c.Insert(key(uint64(i), 0), mem.Addr(i))
	}
	if c.Len() != 1000 || c.Stats().Evictions != 0 {
		t.Fatalf("len=%d evictions=%d", c.Len(), c.Stats().Evictions)
	}
}

func TestInvalidateHandle(t *testing.T) {
	c := New(10, LRU, 1)
	for n := int32(0); n < 4; n++ {
		c.Insert(key(5, n), mem.Addr(n))
	}
	c.Insert(key(6, 0), 0x60)
	if got := c.InvalidateHandle(5); got != 4 {
		t.Fatalf("invalidated %d, want 4", got)
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1", c.Len())
	}
	if _, ok := c.Lookup(key(6, 0)); !ok {
		t.Fatal("unrelated entry invalidated")
	}
	if c.Stats().Invalidations != 4 {
		t.Fatalf("invalidations = %d", c.Stats().Invalidations)
	}
}

func TestRemove(t *testing.T) {
	c := New(10, LRU, 1)
	c.Insert(key(1, 0), 1)
	c.Remove(key(1, 0))
	c.Remove(key(1, 0)) // idempotent
	if c.Len() != 0 {
		t.Fatal("remove failed")
	}
}

// Keys returns the cached keys in MRU-to-LRU order: how the tests see
// the recency order.
func (c *Cache) Keys() []Key {
	out := make([]Key, 0, len(c.index))
	for i := c.head; i != none; i = c.slots[i].next {
		out = append(out, c.slots[i].key)
	}
	return out
}

func TestKeysMRUOrder(t *testing.T) {
	c := New(10, LRU, 1)
	c.Insert(key(1, 0), 1)
	c.Insert(key(2, 0), 2)
	c.Insert(key(3, 0), 3)
	c.Lookup(key(1, 0))
	ks := c.Keys()
	want := []uint64{1, 3, 2}
	for i, k := range ks {
		if k.Handle != want[i] {
			t.Fatalf("keys = %v", ks)
		}
	}
}

// Steady-state LRU hit rate over K uniformly random keys with capacity
// C approaches C/K — the analytical model behind the paper's Figure 8a
// (Pointer stressmark hit-rate degradation with node count).
func TestLRUUniformHitRate(t *testing.T) {
	const K, C, N = 50, 10, 200000
	c := New(C, LRU, 1)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < N; i++ {
		k := key(uint64(rng.Intn(K)), 0)
		if _, ok := c.Lookup(k); !ok {
			c.Insert(k, 1)
		}
	}
	got := c.Stats().HitRate()
	want := float64(C) / float64(K)
	if got < want-0.03 || got > want+0.03 {
		t.Fatalf("hit rate %.3f, want ≈%.3f", got, want)
	}
}

// Property: an LRU cache agrees with a simple reference model over
// arbitrary lookup/insert/invalidate sequences.
// TestPropertyLRUMatchesReference replays seeded random calls of the
// whole API against a slice model kept MRU first, at capacity 4, 0 (no
// storage) and -1 (unbounded): every result, the recency order and the
// counters must match the model's after every call.
func TestPropertyLRUMatchesReference(t *testing.T) {
	type refEntry struct {
		k  Key
		a  mem.Addr
		ep uint32
	}
	for _, capacity := range []int{4, 0, -1} {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			c := New(capacity, LRU, 1)
			var ref []refEntry // front = MRU
			var want Stats
			refFind := func(k Key) int {
				for i, e := range ref {
					if e.k == k {
						return i
					}
				}
				return -1
			}
			toFront := func(i int) {
				e := ref[i]
				ref = append(ref[:i], ref[i+1:]...)
				ref = append([]refEntry{e}, ref...)
			}
			// drop removes every model entry that match selects and
			// returns how many there were.
			drop := func(match func(Key) bool) int {
				out := ref[:0]
				for _, e := range ref {
					if !match(e.k) {
						out = append(out, e)
					}
				}
				n := len(ref) - len(out)
				ref = out
				want.Invalidations += int64(n)
				return n
			}
			for op := 0; op < 400; op++ {
				k := key(uint64(rng.Intn(6)), int32(rng.Intn(3)))
				switch rng.Intn(9) {
				case 0, 1: // insert, with or without an epoch
					a, ep := mem.Addr(rng.Intn(1000)), uint32(rng.Intn(4))
					if rng.Intn(2) == 0 {
						c.Insert(k, a)
						ep = 0
					} else {
						c.InsertEpoch(k, a, ep)
					}
					switch i := refFind(k); {
					case capacity == 0:
					case i >= 0:
						ref[i].a, ref[i].ep = a, ep
						toFront(i)
					default:
						if capacity > 0 && len(ref) == capacity {
							ref = ref[:len(ref)-1]
							want.Evictions++
						}
						ref = append([]refEntry{{k, a, ep}}, ref...)
						want.Inserts++
					}
				case 2: // remove
					c.Remove(k)
					drop(func(x Key) bool { return x == k })
				case 3: // invalidate handle
					if c.InvalidateHandle(k.Handle) != drop(func(x Key) bool { return x.Handle == k.Handle }) {
						return false
					}
				case 4: // invalidate node
					if c.InvalidateNode(k.Node) != drop(func(x Key) bool { return x.Node == k.Node }) {
						return false
					}
				case 5: // contains
					if c.Contains(k) != (refFind(k) >= 0) {
						return false
					}
				default: // lookup, with or without the epoch
					var a mem.Addr
					var ep uint32
					var ok bool
					withEpoch := rng.Intn(2) == 0
					if withEpoch {
						a, ep, ok = c.LookupEpoch(k)
					} else {
						a, ok = c.Lookup(k)
					}
					i := refFind(k)
					if ok != (i >= 0) {
						return false
					}
					if !ok {
						want.Misses++
						break
					}
					want.Hits++
					if a != ref[i].a || withEpoch && ep != ref[i].ep {
						return false
					}
					toFront(i)
				}
				if c.Len() != len(ref) || c.Stats() != want {
					return false
				}
				// Full order check.
				ks := c.Keys()
				for i, e := range ref {
					if ks[i] != e.k {
						return false
					}
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
			t.Fatalf("capacity %d: %v", capacity, err)
		}
	}
}

func TestHitRateZeroLookups(t *testing.T) {
	// A fresh cache has no lookups; HitRate must guard the division.
	c := New(4, LRU, 1)
	if r := c.Stats().HitRate(); r != 0 {
		t.Fatalf("HitRate with zero lookups = %v, want 0", r)
	}
	var s Stats
	if s.HitRate() != 0 || s.Lookups() != 0 {
		t.Fatal("zero Stats must report zero rate and lookups")
	}
}

func TestReInsertRefreshesRecency(t *testing.T) {
	// Re-inserting a resident key must make it MRU, not leave it at its
	// old position: a piggybacked base that arrives again is as fresh as
	// a lookup hit, and evicting it next would throw away the hottest
	// translation.
	c := New(2, LRU, 1)
	c.Insert(key(1, 0), 0x10)
	c.Insert(key(2, 0), 0x20)
	c.Insert(key(1, 0), 0x11) // refresh: key 2 becomes the LRU
	c.Insert(key(3, 0), 0x30) // evicts exactly one entry
	if _, ok := c.Lookup(key(1, 0)); !ok {
		t.Fatal("re-inserted key was evicted; recency not refreshed")
	}
	if _, ok := c.Lookup(key(2, 0)); ok {
		t.Fatal("stale key survived; re-insert did not move to MRU")
	}
}

func TestInvalidateHandleCountsOnce(t *testing.T) {
	// Every dropped entry is counted exactly once, across repeated
	// invalidations of the same handle and mixed-handle populations.
	c := New(10, LRU, 1)
	for n := int32(0); n < 3; n++ {
		c.Insert(key(9, n), mem.Addr(0x90+n))
	}
	c.Insert(key(8, 0), 0x80)
	if got := c.InvalidateHandle(9); got != 3 {
		t.Fatalf("first invalidation dropped %d, want 3", got)
	}
	if got := c.InvalidateHandle(9); got != 0 {
		t.Fatalf("second invalidation dropped %d, want 0", got)
	}
	if got := c.InvalidateHandle(7); got != 0 {
		t.Fatalf("absent handle dropped %d, want 0", got)
	}
	if inv := c.Stats().Invalidations; inv != 3 {
		t.Fatalf("invalidations stat = %d, want 3 (each entry once)", inv)
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1 (unrelated handle intact)", c.Len())
	}
}

func TestZeroCapacityCountsMisses(t *testing.T) {
	// A capacity-0 cache stores nothing, but its lookups are still real
	// lookups: the miss counter must advance or hit-rate reports from
	// cache-off baselines read as 0/0 instead of all-miss.
	c := New(0, LRU, 1)
	c.Insert(key(1, 0), 0x10)
	for i := 0; i < 5; i++ {
		if _, ok := c.Lookup(key(1, 0)); ok {
			t.Fatal("zero-capacity cache returned a hit")
		}
	}
	st := c.Stats()
	if st.Misses != 5 || st.Hits != 0 {
		t.Fatalf("stats = %+v, want 5 misses / 0 hits", st)
	}
	if st.HitRate() != 0 {
		t.Fatalf("hit rate = %v, want 0", st.HitRate())
	}
}

func TestContainsDoesNotTouchStatsOrRecency(t *testing.T) {
	// Contains is the piggyback filter's residency probe; it must not
	// perturb hit/miss accounting or LRU order, or probing would both
	// skew the measured hit rate and protect entries it only glanced at.
	c := New(2, LRU, 1)
	c.Insert(key(1, 0), 0x10)
	c.Insert(key(2, 0), 0x20)
	if !c.Contains(key(1, 0)) || c.Contains(key(3, 0)) {
		t.Fatal("Contains residency answers wrong")
	}
	st := c.Stats()
	if st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("Contains touched stats: %+v", st)
	}
	c.Insert(key(3, 0), 0x30) // key 1 is still the LRU despite Contains
	if _, ok := c.Lookup(key(1, 0)); ok {
		t.Fatal("Contains refreshed recency; key 1 should have been evicted")
	}
}

func TestInvalidateNode(t *testing.T) {
	// Mirrors TestInvalidateHandle across the other key axis: every
	// entry pointing at the crashed node drops, exactly once, and
	// entries for other nodes survive untouched.
	c := New(10, LRU, 1)
	for h := uint64(0); h < 4; h++ {
		c.Insert(key(h, 2), mem.Addr(0x20+h))
	}
	c.Insert(key(0, 1), 0x10)
	if got := c.InvalidateNode(2); got != 4 {
		t.Fatalf("invalidated %d, want 4", got)
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1", c.Len())
	}
	if _, ok := c.Lookup(key(0, 1)); !ok {
		t.Fatal("entry for a live node invalidated")
	}
	if c.Stats().Invalidations != 4 {
		t.Fatalf("invalidations = %d, want 4", c.Stats().Invalidations)
	}
}

func TestInvalidateNodeCountsOnce(t *testing.T) {
	c := New(10, LRU, 1)
	for h := uint64(0); h < 3; h++ {
		c.Insert(key(h, 3), mem.Addr(0x30+h))
	}
	c.Insert(key(9, 0), 0x90)
	if got := c.InvalidateNode(3); got != 3 {
		t.Fatalf("first invalidation dropped %d, want 3", got)
	}
	if got := c.InvalidateNode(3); got != 0 {
		t.Fatalf("second invalidation dropped %d, want 0", got)
	}
	if got := c.InvalidateNode(7); got != 0 {
		t.Fatalf("absent node dropped %d, want 0", got)
	}
	if inv := c.Stats().Invalidations; inv != 3 {
		t.Fatalf("invalidations stat = %d, want 3 (each entry once)", inv)
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1 (other node intact)", c.Len())
	}
}

func TestInvalidateNodeThenContains(t *testing.T) {
	// The multi-pair piggyback filter probes residency with Contains; a
	// node-wide invalidation must make those probes miss so the next
	// reply's pairs re-populate, and the probes themselves must not
	// resurrect or protect anything.
	c := New(10, LRU, 1)
	c.Insert(key(1, 2), 0x21)
	c.Insert(key(2, 2), 0x22)
	c.Insert(key(1, 0), 0x01)
	if n := c.InvalidateNode(2); n != 2 {
		t.Fatalf("invalidated %d, want 2", n)
	}
	if c.Contains(key(1, 2)) || c.Contains(key(2, 2)) {
		t.Fatal("Contains sees entries of the invalidated node")
	}
	if !c.Contains(key(1, 0)) {
		t.Fatal("Contains lost an entry of a live node")
	}
	st := c.Stats()
	if st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("Contains touched stats after invalidation: %+v", st)
	}
	// Fresh inserts for the restarted node land cleanly.
	c.InsertEpoch(key(1, 2), 0x31, 1)
	if addr, ep, ok := c.LookupEpoch(key(1, 2)); !ok || addr != 0x31 || ep != 1 {
		t.Fatalf("re-insert after invalidation: addr=%#x epoch=%d ok=%v", addr, ep, ok)
	}
}

func TestInsertEpochRoundTrip(t *testing.T) {
	c := New(4, LRU, 1)
	c.Insert(key(1, 0), 0x10) // plain insert defaults to epoch 0
	if _, ep, ok := c.LookupEpoch(key(1, 0)); !ok || ep != 0 {
		t.Fatalf("plain insert epoch = %d, want 0", ep)
	}
	// An in-place update must refresh both address and epoch — a stale
	// epoch on a fresh address would defeat the mismatch check.
	c.InsertEpoch(key(1, 0), 0x40, 3)
	addr, ep, ok := c.LookupEpoch(key(1, 0))
	if !ok || addr != 0x40 || ep != 3 {
		t.Fatalf("update: addr=%#x epoch=%d ok=%v, want 0x40/3/true", addr, ep, ok)
	}
	if c.Stats().Inserts != 1 {
		t.Fatalf("in-place update counted as insert: %d", c.Stats().Inserts)
	}
}

func TestKeyStatsPerKeyAccounting(t *testing.T) {
	// The cache keeps no per-key counters: a report of one object's hit
	// rate reads the global ones (internal/bench's KV figures do). What
	// the per-key counters guaranteed must hold of those: a miss counts
	// while the key is absent — before its insert, after its eviction —
	// so the rate reflects the whole access history, not just the cached
	// stretches.
	c := New(2, LRU, 1)
	c.Lookup(key(1, 0)) // miss while absent
	c.Insert(key(1, 0), 0x10)
	c.Lookup(key(1, 0)) // hit
	c.Lookup(key(1, 0)) // hit
	c.Lookup(key(2, 0)) // miss on a different key
	if st := c.Stats(); st.Hits != 2 || st.Misses != 2 {
		t.Fatalf("stats = %+v, want 2 hits / 2 misses", st)
	}
	c.Insert(key(2, 0), 0x20)
	c.Insert(key(3, 0), 0x30) // evicts key 1 (LRU)
	c.Lookup(key(1, 0))       // miss after eviction
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 3 || st.Lookups() != 5 {
		t.Fatalf("stats after eviction = %+v, want 2 hits / 3 misses", st)
	}
	if r := st.HitRate(); r != 0.4 {
		t.Fatalf("hit rate = %v, want 0.4", r)
	}
}

// listLen walks the recency order from both ends; the two counts agree
// iff the prev/next threading is consistent.
func listLen(t *testing.T, c *Cache) int {
	t.Helper()
	fwd, back := 0, 0
	for i := c.head; i != none; i = c.slots[i].next {
		fwd++
	}
	for i := c.tail; i != none; i = c.slots[i].prev {
		back++
	}
	if fwd != back {
		t.Fatalf("recency order is %d long from the head, %d from the tail", fwd, back)
	}
	return fwd
}

// TestOneTable pins the cache's storage: one slab of slots that grows on
// demand to the capacity and no further, one index entry and one place
// in the recency order per resident key, vacated slots reused before the
// slab grows, and nothing allocated per insert once it is full.
func TestOneTable(t *testing.T) {
	const capacity = 100
	c := New(capacity, LRU, 1)
	consistent := func() {
		t.Helper()
		if n := listLen(t, c); len(c.index) != c.Len() || n != c.Len() {
			t.Fatalf("index %d, Len %d, recency order %d", len(c.index), c.Len(), n)
		}
	}
	for i := 0; i < 10000; i++ {
		c.Insert(key(uint64(i), int32(i%7)), mem.Addr(i))
		switch {
		case i%13 == 0:
			c.Remove(key(uint64(i-5), int32((i-5+7)%7)))
		case i%101 == 0:
			c.InvalidateNode(int32(i % 7))
		}
		consistent()
		if len(c.slots) > capacity {
			t.Fatalf("slab grew to %d slots with capacity %d", len(c.slots), capacity)
		}
	}

	// Vacated slots are reused before the slab grows.
	c = New(capacity, LRU, 1)
	for i := 0; i < 40; i++ {
		c.Insert(key(uint64(i%4), int32(i/4)), 1)
	}
	if len(c.slots) != 40 {
		t.Fatalf("slab has %d slots after 40 inserts", len(c.slots))
	}
	if n := c.InvalidateHandle(2); n != 10 {
		t.Fatalf("invalidated %d entries, want 10", n)
	}
	consistent()
	for i := 0; i < 10; i++ {
		c.Insert(key(9, int32(i)), 1)
		consistent()
	}
	if len(c.slots) != 40 || c.Len() != 40 || c.free != none {
		t.Fatalf("after refilling 10 vacated slots: slab %d, Len %d, free list head %d", len(c.slots), c.Len(), c.free)
	}
	c.Insert(key(10, 0), 1)
	if len(c.slots) != 41 {
		t.Fatalf("slab has %d slots, want 41: no free slot was left", len(c.slots))
	}

	// An unbounded cache keeps growing.
	c = New(-1, LRU, 1)
	for i := 0; i < 1000; i++ {
		c.Insert(key(uint64(i), 0), 1)
	}
	consistent()
	if len(c.slots) != 1000 {
		t.Fatalf("unbounded slab has %d slots after 1000 inserts", len(c.slots))
	}

	// Steady state: a full cache evicts one entry per insert into the
	// slot it vacates.
	c = New(capacity, LRU, 1)
	next := 0
	insert := func() {
		c.Insert(key(uint64(next), int32(next&3)), mem.Addr(next))
		next++
	}
	for next < 4*capacity {
		insert()
	}
	if a := testing.AllocsPerRun(2000, insert); a != 0 {
		t.Fatalf("%v allocations per steady-state insert, want 0", a)
	}
	if c.Stats().Evictions != int64(next-capacity) {
		t.Fatalf("%d evictions over %d inserts", c.Stats().Evictions, next)
	}
}
