package addrcache

import (
	"reflect"
	"testing"
)

func adaptKey(h uint64, node int32) Key { return Key{Handle: h, Node: node} }

// touch looks a key up and inserts it on a miss — one simulated remote
// access against the cache.
func touch(c *Cache, k Key) bool {
	if _, ok := c.Lookup(k); ok {
		return true
	}
	c.Insert(k, 0x1000)
	return false
}

// Shares follow observed hits: after a window dominated by one peer's
// hits, the re-apportionment hands that peer most of the budget while
// the others keep the floor share.
func TestAdaptiveSharesFollowHits(t *testing.T) {
	c := NewAdaptive(AdaptiveConfig{Budget: 6, Window: 16}, 1)
	if c.Share(1) != DefaultMinPer || c.Capacity() != 6 {
		t.Fatal("adaptive cache misconfigured")
	}
	// Peer 1: four hot keys hit repeatedly. Peers 2 and 3: one cold
	// key each, touched once.
	touch(c, adaptKey(10, 2))
	touch(c, adaptKey(11, 3))
	for i := 0; i < 20; i++ {
		touch(c, adaptKey(uint64(i%4), 1))
	}
	if c.Stats().Resizes == 0 {
		t.Fatal("no re-apportionment happened")
	}
	if s := c.Share(1); s < 4 {
		t.Fatalf("hot peer share = %d, want >= 4", s)
	}
	if c.Share(2) < 1 || c.Share(3) < 1 {
		t.Fatalf("cold peers below floor: %d %d", c.Share(2), c.Share(3))
	}
	if c.Share(1)+c.Share(2)+c.Share(3) > 6 {
		t.Fatalf("shares exceed budget: %d+%d+%d", c.Share(1), c.Share(2), c.Share(3))
	}
}

// Pollution from a cold peer evicts that peer's own over-share entries,
// not the hot peer's residents.
func TestAdaptiveEvictsOverSharePeer(t *testing.T) {
	// Window wider than the burst: the hot peer's claim from the last
	// re-apportionment stays in force while the pollution streams by.
	c := NewAdaptive(AdaptiveConfig{Budget: 6, Window: 32}, 1)
	// Establish the hot peer's claim over a full window.
	for i := 0; i < 32; i++ {
		touch(c, adaptKey(uint64(i%4), 1))
	}
	if c.Share(1) != 6 {
		t.Fatalf("sole peer share = %d, want the whole budget", c.Share(1))
	}
	if c.Resident(1) != 4 {
		t.Fatalf("hot residents = %d, want 4", c.Resident(1))
	}
	// A burst of distinct cold keys from peer 2 larger than the budget.
	for i := 0; i < 10; i++ {
		touch(c, adaptKey(uint64(100+i), 2))
	}
	if c.Resident(1) != 4 {
		t.Fatalf("pollution evicted the hot peer: residents = %d", c.Resident(1))
	}
	for i := 0; i < 4; i++ {
		if _, ok := c.Lookup(adaptKey(uint64(i), 1)); !ok {
			t.Fatalf("hot key %d lost", i)
		}
	}
}

// When the per-peer floor cannot fit the budget, floors are granted in
// ascending peer order and the rest get nothing — deterministically.
func TestAdaptiveFloorOverflowDeterministic(t *testing.T) {
	c := NewAdaptive(AdaptiveConfig{Budget: 2, Window: 4, MinPer: 1}, 1)
	for i := 0; i < 8; i++ {
		touch(c, adaptKey(uint64(i), int32(1+i%4))) // four peers, one key each
	}
	total := 0
	for n := int32(1); n <= 4; n++ {
		total += c.Share(n)
	}
	if total > 2 {
		t.Fatalf("granted %d shares over a budget of 2", total)
	}
}

// Determinism: identical access sequences produce identical stats,
// shares and residency, run after run — no map-iteration-order leaks.
func TestAdaptiveDeterministic(t *testing.T) {
	run := func() (Stats, []int, []int) {
		c := NewAdaptive(AdaptiveConfig{Budget: 5, Window: 8}, 9)
		x := uint64(88172645463325252)
		for i := 0; i < 500; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			touch(c, adaptKey(x%12, int32(1+x%5)))
		}
		var shares, counts []int
		for n := int32(1); n <= 5; n++ {
			shares = append(shares, c.Share(n))
			counts = append(counts, c.Resident(n))
		}
		return c.Stats(), shares, counts
	}
	st0, sh0, ct0 := run()
	if st0.Resizes == 0 || st0.Evictions == 0 {
		t.Fatalf("script too gentle: %+v", st0)
	}
	for i := 0; i < 3; i++ {
		st, sh, ct := run()
		if st != st0 || !reflect.DeepEqual(sh, sh0) || !reflect.DeepEqual(ct, ct0) {
			t.Fatalf("run %d diverged: %+v %v %v vs %+v %v %v", i, st0, sh0, ct0, st, sh, ct)
		}
	}
}

// Invalidation keeps the per-peer residency accounting honest.
func TestAdaptiveInvalidateAccounting(t *testing.T) {
	c := NewAdaptive(AdaptiveConfig{Budget: 6, Window: 8}, 1)
	for i := 0; i < 3; i++ {
		touch(c, adaptKey(uint64(i), 1))
	}
	touch(c, adaptKey(7, 2))
	if c.Resident(1) != 3 || c.Resident(2) != 1 {
		t.Fatalf("residents: %d %d", c.Resident(1), c.Resident(2))
	}
	c.InvalidateHandle(1)
	if c.Resident(1) != 2 {
		t.Fatalf("handle invalidation: residents = %d, want 2", c.Resident(1))
	}
	c.InvalidateNode(1)
	if c.Resident(1) != 0 || c.Resident(2) != 1 {
		t.Fatalf("node invalidation: residents = %d/%d", c.Resident(1), c.Resident(2))
	}
}
