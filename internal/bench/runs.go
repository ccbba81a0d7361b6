package bench

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"xlupc/internal/core"
	"xlupc/internal/dis"
	"xlupc/internal/transport"
)

// runPoint is one stressmark run a figure asks for: the mark, the
// parameters, and a configuration of which only Threads, Nodes, Profile,
// Cache and Seed are set.
type runPoint struct {
	mark string
	cfg  core.Config
	p    dis.Params
}

// point is the stressmark run of mark at scale sc on prof with cache cc,
// at the sweep's seed and the figures' parameters.
func (s Sweep) point(mark string, prof *transport.Profile, sc Scale, cc core.CacheConfig) runPoint {
	return runPoint{mark: mark, cfg: core.Config{
		Threads: sc.Threads, Nodes: sc.Nodes, Profile: prof, Cache: cc, Seed: s.Seed,
	}}
}

// runKey is a runPoint's whole configuration, comparable: the profile
// printed field by field but for NewTopo (a func prints as an address
// that differs from one call site of transport.GM to the next; the
// topology goes with the profile's name).
type runKey struct {
	mark           string
	prof           string
	threads, nodes int
	cache          core.CacheConfig
	seed           int64
	p              dis.Params
}

func (pt runPoint) key() runKey {
	prof := *pt.cfg.Profile
	prof.NewTopo = nil
	return runKey{
		mark: pt.mark, prof: fmt.Sprint(prof),
		threads: pt.cfg.Threads, nodes: pt.cfg.Nodes,
		cache: pt.cfg.Cache, seed: pt.cfg.Seed, p: pt.p,
	}
}

// group is k with the capacity left out: the runs a capacity can be
// reused across.
func (k runKey) group() runKey {
	k.cache.Capacity = 0
	return k
}

// bound is k's capacity when the capacity rule applies to it — a fixed
// positive capacity, enabled — and 0 otherwise.
func (k runKey) bound() int {
	if k.cache.Enabled && k.cache.Capacity > 0 {
		return k.cache.Capacity
	}
	return 0
}

// runResult is what the table keeps of one run.
type runResult struct {
	st    core.RunStats
	check uint64
	// high is the most entries any node's address cache held.
	high int
	// from is the key that was simulated: the run's own, or a run of its
	// group at another capacity that the capacity rule let it reuse.
	from runKey
}

// runTable is a sweep's run table: the result of every stressmark run
// its figures asked for, by full configuration. A key already run is
// read back; and a run with a fixed positive capacity C (bound) reuses
// any such run of its group (the same configuration at another
// capacity) that never evicted and whose fullest node cache held at
// most C entries. addrcache.Cache.InsertEpoch is the only place capacity
// acts — the capacity-0 return and the eviction of a full cache — and in
// such a run neither fires, so it is the same event stream at every
// capacity of at least its high-water mark (DESIGN.md §7). It keeps
// RunStats and checksums, never a runtime.
type runTable struct {
	mu   sync.Mutex
	runs map[runKey]*runResult
	// donors are, by group, the runs with a bound that never evicted:
	// the runs another capacity may reuse.
	donors map[runKey][]*runResult
	// requests and simulated count the keys asked for and the runs
	// made; the tests assert what the table saved.
	requests, simulated int
	// field are §4.6's Field telemetry runs (Sweep.fieldRun), with their
	// own counts: a hub records what RunStats does not.
	field                         map[runKey]fieldRun
	fieldRequests, fieldSimulated int
}

func newRunTable() *runTable {
	return &runTable{runs: map[runKey]*runResult{}, donors: map[runKey][]*runResult{}, field: map[runKey]fieldRun{}}
}

// get returns the result of pt, whose key is k: read back, reused from
// a run of another capacity, or simulated now. Simulation runs outside
// the lock; the groups of one call of run never share a key, so no two
// goroutines simulate one key.
func (tab *runTable) get(pt runPoint, k runKey) runResult {
	tab.mu.Lock()
	tab.requests++
	r := tab.runs[k]
	if r == nil && k.bound() > 0 {
		for _, d := range tab.donors[k.group()] {
			if d.high <= k.bound() {
				r = d
				tab.runs[k] = r
				break
			}
		}
	}
	tab.mu.Unlock()
	if r != nil {
		return *r
	}
	st, check, rt := runMark(pt.mark, pt.cfg, pt.p)
	r = &runResult{st: st, check: check, high: rt.CacheHighWater(), from: k}
	tab.mu.Lock()
	defer tab.mu.Unlock()
	tab.simulated++
	tab.runs[k] = r
	if k.bound() > 0 && st.Cache.Evictions == 0 {
		tab.donors[k.group()] = append(tab.donors[k.group()], r)
	}
	return *r
}

// table is the sweep's run table, shared by every figure it drives when
// WithRunTable gave it one; a Sweep built as a literal gets a fresh
// table for each figure.
func (s Sweep) table() *runTable {
	if s.tab != nil {
		return s.tab
	}
	return newRunTable()
}

// WithRunTable returns s with a run table of its own, which every
// figure s drives and every copy of s shares: a stressmark run that an
// earlier figure already made is read back.
func (s Sweep) WithRunTable() Sweep {
	s.tab = newRunTable()
	return s
}

// run returns the result of every point, in point order, through the
// sweep's run table. The points of one group run on one goroutine,
// largest capacity first, so a smaller capacity finds the larger one's
// run already in the table; the groups fan out over the sweep's
// workers. What is reused is therefore the same whatever Workers is.
func (s Sweep) run(pts []runPoint) []runResult {
	tab := s.table()
	keys := make([]runKey, len(pts))
	var groups [][]int
	at := map[runKey]int{}
	for i, pt := range pts {
		keys[i] = pt.key()
		g := keys[i].group()
		j, ok := at[g]
		if !ok {
			j = len(groups)
			at[g] = j
			groups = append(groups, nil)
		}
		groups[j] = append(groups[j], i)
	}
	out := make([]runResult, len(pts))
	s.parfor(len(groups), func(j int) {
		idx := groups[j]
		slices.SortStableFunc(idx, func(a, b int) int { return cmp.Compare(keys[b].bound(), keys[a].bound()) })
		for _, i := range idx {
			out[i] = tab.get(pts[i], keys[i])
		}
	})
	return out
}
