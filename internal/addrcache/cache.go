// Package addrcache implements the paper's central contribution
// (§3): the remote address cache. Each node keeps a bounded hash
// table correlating a universal SVD handle and a target node id with
// the base address of that shared variable in the target node's
// memory. A hit lets a GET or PUT compute the final remote address
// (base + offset) locally and go over RDMA, bypassing the target CPU;
// a miss falls back to the active-message path, which piggybacks the
// base address on its reply so the next access hits.
//
// The paper's cache is a hash table whose "size is allowed to increase
// on demand to a fixed limit of 100 entries". Here that is three
// fields: a slab of slots that grows on demand to the capacity (the
// limit is configurable — Figure 8 sweeps 4, 10 and 100), one map from
// key to slot number, and the recency order, threaded through the slots
// by number, that LRU eviction reads from the tail. The unbounded table
// is an ablation.
package addrcache

import "xlupc/internal/mem"

// Key identifies one cache entry: which shared object on which node.
type Key struct {
	Handle uint64 // svd.Handle.Key()
	Node   int32
}

// EvictPolicy, LRU and New's policy and seed arguments select nothing:
// a full cache always evicts its least recently used entry. They stay
// declared only because benchmark/api.go, which is frozen while its
// baseline stands, still passes them; they go when it stops.
type EvictPolicy int

const LRU EvictPolicy = 0

// slot is one cache entry, or a vacated one waiting on the free list
// (chained through next).
type slot struct {
	key        Key
	addr       mem.Addr
	epoch      uint32 // target-node incarnation that advertised addr
	prev, next int32  // recency order, by slot number; none ends it
}

// none is the slot number that ends the recency order and the free list.
const none int32 = -1

// Stats are the cache's monotonic counters.
type Stats struct {
	Hits          int64
	Misses        int64
	Inserts       int64
	Evictions     int64
	Invalidations int64 // entries dropped by eager invalidation
}

// Add accumulates another cache's counts into s.
func (s *Stats) Add(o Stats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Inserts += o.Inserts
	s.Evictions += o.Evictions
	s.Invalidations += o.Invalidations
}

// Lookups is the total number of Lookup calls.
func (s Stats) Lookups() int64 { return s.Hits + s.Misses }

// HitRate is Hits over Lookups, or 0 when there were no lookups.
func (s Stats) HitRate() float64 {
	n := s.Lookups()
	if n == 0 {
		return 0
	}
	return float64(s.Hits) / float64(n)
}

// Cache is one node's remote address cache.
//
// Capacity semantics: a positive capacity bounds the entry count (the
// least recently used entry is evicted); capacity 0 disables storage
// entirely — every lookup misses and inserts are dropped — which is
// how the miss-overhead experiment forces the worst case; a negative
// capacity means unbounded, which models the rejected full-table
// design of paper §2.1 for the ablation study.
type Cache struct {
	capacity int
	slots    []slot        // grows on demand, to capacity when that is positive
	index    map[Key]int32 // key -> its slot
	head     int32         // most recently used
	tail     int32         // least recently used
	free     int32         // vacated slots, reused before slots grows
	high     int           // the most entries the cache ever held
	stats    Stats
}

// New returns an empty cache of the given capacity; the policy and the
// seed are unread (see EvictPolicy).
func New(capacity int, _ EvictPolicy, _ int64) *Cache {
	return &Cache{
		capacity: capacity,
		index:    make(map[Key]int32),
		head:     none,
		tail:     none,
		free:     none,
	}
}

// Capacity returns the configured capacity.
func (c *Cache) Capacity() int { return c.capacity }

// Len reports the current number of entries.
func (c *Cache) Len() int { return len(c.index) }

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// HighWater reports the most entries the cache ever held. Capacity acts
// only on an insert that finds the cache full, so a run that never
// evicted runs the same at any capacity of at least its high-water mark.
// It is an observation, not a counter of Stats.
func (c *Cache) HighWater() int { return c.high }

func (c *Cache) unlink(i int32) {
	s := &c.slots[i]
	if s.prev != none {
		c.slots[s.prev].next = s.next
	} else {
		c.head = s.next
	}
	if s.next != none {
		c.slots[s.next].prev = s.prev
	} else {
		c.tail = s.prev
	}
}

func (c *Cache) pushFront(i int32) {
	c.slots[i].prev, c.slots[i].next = none, c.head
	if c.head != none {
		c.slots[c.head].prev = i
	} else {
		c.tail = i
	}
	c.head = i
}

// touch makes slot i the most recently used.
func (c *Cache) touch(i int32) {
	if c.head != i {
		c.unlink(i)
		c.pushFront(i)
	}
}

// Lookup consults the cache. On a hit it returns the cached base
// address and refreshes the entry's recency.
func (c *Cache) Lookup(k Key) (mem.Addr, bool) {
	addr, _, ok := c.LookupEpoch(k)
	return addr, ok
}

// LookupEpoch is Lookup returning also the target-node incarnation
// epoch the address was advertised under. RDMA descriptors carry it so
// the target can NACK addresses minted by a pre-crash incarnation.
func (c *Cache) LookupEpoch(k Key) (mem.Addr, uint32, bool) {
	i, ok := c.index[k]
	if !ok {
		c.stats.Misses++
		return 0, 0, false
	}
	c.stats.Hits++
	c.touch(i)
	return c.slots[i].addr, c.slots[i].epoch, true
}

// Contains reports whether k is resident, without touching the hit or
// miss counters or the entry's recency. The runtime uses it to skip
// re-inserting addresses that arrived several times on one coalesced
// reply frame.
func (c *Cache) Contains(k Key) bool {
	_, ok := c.index[k]
	return ok
}

// Insert records the base address for k, evicting if necessary.
// Re-inserting an existing key updates it in place (the address of a
// live object never changes under the pin-everything policy, but the
// update path exists for the limited-pinning extension).
func (c *Cache) Insert(k Key, addr mem.Addr) { c.InsertEpoch(k, addr, 0) }

// InsertEpoch is Insert tagging the entry with the target-node
// incarnation epoch that advertised the address. Epoch is stored per
// entry — not per node — so a base address recycled by a restarted
// allocator can never be mistaken for current just because it matches.
func (c *Cache) InsertEpoch(k Key, addr mem.Addr, epoch uint32) {
	if c.capacity == 0 {
		return
	}
	if i, ok := c.index[k]; ok {
		c.slots[i].addr, c.slots[i].epoch = addr, epoch
		c.touch(i)
		return
	}
	if c.capacity > 0 && len(c.index) >= c.capacity {
		c.drop(c.tail)
		c.stats.Evictions++
	}
	i := c.free
	if i != none {
		c.free = c.slots[i].next
	} else {
		i = int32(len(c.slots))
		c.slots = append(c.slots, slot{})
	}
	c.slots[i] = slot{key: k, addr: addr, epoch: epoch}
	c.pushFront(i)
	c.index[k] = i
	c.high = max(c.high, len(c.index))
	c.stats.Inserts++
}

// drop removes slot i's entry from the index and the recency order and
// puts the slot on the free list — the one place every removal path
// funnels through.
func (c *Cache) drop(i int32) {
	c.unlink(i)
	delete(c.index, c.slots[i].key)
	c.slots[i] = slot{next: c.free}
	c.free = i
}

// Remove drops the entry for k if present. Callers remove entries
// proven stale (an RDMA NACK from a deregistered target), so a hit
// here counts as an invalidation.
func (c *Cache) Remove(k Key) {
	if i, ok := c.index[k]; ok {
		c.drop(i)
		c.stats.Invalidations++
	}
}

// invalidate drops every entry whose key matches and returns how many
// there were.
func (c *Cache) invalidate(match func(Key) bool) int {
	n := 0
	for i := c.head; i != none; {
		next := c.slots[i].next
		if match(c.slots[i].key) {
			c.drop(i)
			n++
		}
		i = next
	}
	c.stats.Invalidations += int64(n)
	return n
}

// InvalidateHandle eagerly drops every entry for the given shared
// object, whatever the node — called when the object is deallocated
// (paper §3.1: "the address cache is eagerly invalidated when a
// shared object is deallocated"). It returns the number of entries
// dropped.
func (c *Cache) InvalidateHandle(handle uint64) int {
	return c.invalidate(func(k Key) bool { return k.Handle == handle })
}

// InvalidateNode drops every entry whose target is the given node —
// called when a stale-epoch NACK reveals the node crashed and
// restarted, so every address cached for it describes the previous
// incarnation's layout. It returns the number of entries dropped.
func (c *Cache) InvalidateNode(node int32) int {
	return c.invalidate(func(k Key) bool { return k.Node == node })
}
