// Adaptive per-peer sizing: instead of one fixed LRU pool, the cache
// divides a global entry budget into per-target-node shares and
// re-apportions the shares periodically from observed hit rates — the
// address-mapping-hardware observation that translation caches should
// be sized by demonstrated reuse, not by fiat. Peers whose entries keep
// hitting grow their share; peers that only stream misses shrink to a
// floor, so a cold scan against one node cannot wash out another
// node's hot working set.
//
// The bookkeeping is one record per target node the cache has seen
// (window hits, share, resident entries), in one slice kept ascending by
// node id and found by binary search: O(peers seen) on every node, not
// O(nodes), and iterated in a deterministic order.
package addrcache

import "sort"

// DefaultMinPer is the floor share every known peer keeps, so a peer
// can always demonstrate reuse and earn its way back up.
const DefaultMinPer = 1

// AdaptiveConfig enables per-peer adaptive sizing of the address cache.
type AdaptiveConfig struct {
	// Budget is the global entry budget shared by all peers (the
	// adaptive analogue of a fixed Capacity; must be positive).
	Budget int
	// Window is the number of lookups between re-apportionments (must
	// be positive).
	Window int
}

// peerState is what adaptive sizing keeps per target node.
type peerState struct {
	node    int32
	winHits int64 // hits since the last re-apportionment
	share   int   // current apportionment; the floor until the first one
	count   int   // resident entries
}

// adaptState is the bookkeeping behind an adaptive cache: one record
// per target node ever looked up or inserted, ascending by node id.
type adaptState struct {
	cfg   AdaptiveConfig
	peers []peerState
	looks int // lookups since the last re-apportionment
}

// NewAdaptive returns a cache whose capacity is cfg.Budget, divided
// into per-peer shares that track observed hit rates. The replacement
// policy within a share is LRU.
func NewAdaptive(cfg AdaptiveConfig) *Cache {
	c := New(cfg.Budget, LRU, 0)
	c.adapt = &adaptState{cfg: cfg}
	return c
}

// Share reports the peer's current entry share (adaptive caches only).
func (c *Cache) Share(node int32) int {
	if c.adapt == nil {
		return 0
	}
	if i, ok := c.adapt.find(node); ok {
		return c.adapt.peers[i].share
	}
	return DefaultMinPer
}

// Resident reports how many cached entries target the peer.
func (c *Cache) Resident(node int32) int {
	if c.adapt == nil {
		return 0
	}
	if i, ok := c.adapt.find(node); ok {
		return c.adapt.peers[i].count
	}
	return 0
}

// find is the position of node's record in peers, or where it belongs.
func (a *adaptState) find(node int32) (int, bool) {
	i := sort.Search(len(a.peers), func(i int) bool { return a.peers[i].node >= node })
	return i, i < len(a.peers) && a.peers[i].node == node
}

// peer returns node's record, registering the node on first contact.
// The pointer is good until the next registration.
func (a *adaptState) peer(node int32) *peerState {
	i, ok := a.find(node)
	if !ok {
		a.peers = append(a.peers, peerState{})
		copy(a.peers[i+1:], a.peers[i:])
		a.peers[i] = peerState{node: node, share: DefaultMinPer}
	}
	return &a.peers[i]
}

// adaptNote records one lookup's outcome and re-apportions shares when
// the window closes.
func (c *Cache) adaptNote(node int32, hit bool) {
	a := c.adapt
	p := a.peer(node)
	if hit {
		p.winHits++
	}
	a.looks++
	if a.looks >= a.cfg.Window {
		c.reapportion()
	}
}

// reapportion rebuilds the per-peer shares from the closing window's
// hit counts: every peer keeps the floor, and the remaining budget is
// split proportionally to window hits by largest remainder. All ties
// break deterministically (more hits first, then smaller node id).
func (c *Cache) reapportion() {
	a := c.adapt
	a.looks = 0
	budget := c.capacity
	n := len(a.peers)
	if n == 0 || budget <= 0 {
		return
	}
	if DefaultMinPer*n > budget {
		// Budget can't even cover the floors: hand out floors in id
		// order until it runs dry.
		left := budget
		for i := range a.peers {
			s := min(DefaultMinPer, left)
			a.peers[i].share = s
			left -= s
		}
	} else {
		extra := budget - DefaultMinPer*n
		var hits int64
		for i := range a.peers {
			hits += a.peers[i].winHits
		}
		type claim struct {
			p    *peerState
			base int
			rem  int64 // largest-remainder numerator
		}
		claims := make([]claim, 0, n)
		given := 0
		for i := range a.peers {
			cl := claim{p: &a.peers[i]}
			if hits > 0 {
				w := cl.p.winHits
				cl.base = int(int64(extra) * w / hits)
				cl.rem = int64(extra) * w % hits
			}
			given += cl.base
			claims = append(claims, cl)
		}
		// Leftover units (rounding, or a hitless window) go to the
		// largest remainders, then the most-hit, then the smallest id.
		sort.SliceStable(claims, func(i, j int) bool {
			if claims[i].rem != claims[j].rem {
				return claims[i].rem > claims[j].rem
			}
			if claims[i].p.winHits != claims[j].p.winHits {
				return claims[i].p.winHits > claims[j].p.winHits
			}
			return claims[i].p.node < claims[j].p.node
		})
		for i := range claims {
			if given < extra {
				claims[i].base++
				given++
			}
			claims[i].p.share = DefaultMinPer + claims[i].base
		}
	}
	for i := range a.peers {
		a.peers[i].winHits = 0
	}
	c.stats.Resizes++
}

// adaptVictim picks the slot to free for an insert targeting node ins:
// the LRU entry of the peer most over its share (ties to the smaller
// id), falling back to the inserting peer's own LRU entry and finally
// the global tail. Shrunken shares are thus enforced lazily, one insert
// at a time, with no bulk teardown at re-apportionment.
func (c *Cache) adaptVictim(ins int32) int32 {
	over, victimPeer := 0, ins
	for i := range c.adapt.peers {
		if p := &c.adapt.peers[i]; p.count-p.share > over {
			over, victimPeer = p.count-p.share, p.node
		}
	}
	if v := c.lruOf(victimPeer); v != none {
		return v
	}
	return c.tail
}

// lruOf returns the least-recently-used slot targeting node, or none.
func (c *Cache) lruOf(node int32) int32 {
	for i := c.tail; i != none; i = c.slots[i].prev {
		if c.slots[i].key.Node == node {
			return i
		}
	}
	return none
}
