package addrcache

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"xlupc/internal/mem"
)

var updateScriptGolden = flag.Bool("update", false, "rewrite testdata/script_golden.json from this tree")

const scriptGoldenFile = "testdata/script_golden.json"

const (
	scriptOps   = 20000 // per case
	scriptEvery = 1000  // ops between state checkpoints
)

// scriptCase is one cache configuration the script is replayed against.
type scriptCase struct {
	name    string
	mk      func() *Cache
	peers   int // target nodes the script addresses
	handles int // distinct handles per node
}

func scriptCases() []scriptCase {
	cs := []scriptCase{
		{"lru-4", func() *Cache { return New(4, LRU, 1) }, 3, 4},
		{"lru-10", func() *Cache { return New(10, LRU, 1) }, 4, 6},
		{"lru-100", func() *Cache { return New(100, LRU, 1) }, 8, 30},
		{"unbounded", func() *Cache { return New(-1, LRU, 1) }, 8, 64},
		{"cap-0", func() *Cache { return New(0, LRU, 1) }, 3, 4},
	}
	for _, budget := range []int{6, 24} {
		for _, window := range []int{16, 128} {
			for _, peers := range []int{2, 5, 9} {
				cfg := AdaptiveConfig{Budget: budget, Window: window}
				cs = append(cs, scriptCase{
					fmt.Sprintf("adaptive-b%d-w%d-m%d-p%d", budget, window, DefaultMinPer, peers),
					func() *Cache { return NewAdaptive(cfg) }, peers, 2*budget/peers + 3})
			}
		}
	}
	return cs
}

// scriptRow is what one case is pinned to: a digest of every value the
// script saw — each call's results and, every scriptEvery ops, Keys(),
// Stats() and every peer's Share and Resident — the running digest at
// each checkpoint (to locate a divergence) and the final counters in
// the clear.
type scriptRow struct {
	Digest      string   `json:"digest"`
	Checkpoints []string `json:"checkpoints"`
	Final       Stats    `json:"final"`
}

// runScript replays the seeded script against c. Node ids are spread out
// (3n+1), so nothing can pass by treating a node id as a dense index.
func runScript(sc scriptCase) scriptRow {
	c := sc.mk()
	rng := rand.New(rand.NewSource(int64(len(sc.name))*7919 + int64(sc.peers)))
	h := sha256.New()
	var row scriptRow
	node := func() int32 { return int32(3*rng.Intn(sc.peers) + 1) }
	pick := func() Key {
		// Skewed towards low handles of low nodes, so some peers earn
		// hits while others stream misses.
		hd := rng.Intn(sc.handles)
		if rng.Intn(3) == 0 {
			hd = rng.Intn(1 + sc.handles/4)
		}
		return Key{Handle: uint64(hd), Node: node()}
	}
	for op := 1; op <= scriptOps; op++ {
		k := pick()
		switch r := rng.Intn(100); {
		case r < 45:
			addr, ep, ok := c.LookupEpoch(k)
			fmt.Fprintf(h, "L %v %d %d %v\n", k, addr, ep, ok)
			if !ok && rng.Intn(4) != 0 {
				c.InsertEpoch(k, mem.Addr(0x1000+op), uint32(op%5))
			}
		case r < 55:
			addr, ok := c.Lookup(k)
			fmt.Fprintf(h, "l %v %d %v\n", k, addr, ok)
		case r < 72:
			c.InsertEpoch(k, mem.Addr(0x2000+op), uint32(op%7))
			fmt.Fprintf(h, "I %v %d\n", k, c.Len())
		case r < 78:
			c.Insert(k, mem.Addr(0x3000+op))
			fmt.Fprintf(h, "i %v %d\n", k, c.Len())
		case r < 85:
			c.Remove(k)
			fmt.Fprintf(h, "R %v %d\n", k, c.Len())
		case r < 93:
			fmt.Fprintf(h, "C %v %v\n", k, c.Contains(k))
		case r < 97:
			fmt.Fprintf(h, "H %d %d\n", k.Handle, c.InvalidateHandle(k.Handle))
		default:
			fmt.Fprintf(h, "N %d %d\n", k.Node, c.InvalidateNode(k.Node))
		}
		if op%scriptEvery == 0 {
			checkpoint(h, c, sc.peers)
			row.Checkpoints = append(row.Checkpoints, fmt.Sprintf("%x", h.Sum(nil)[:6]))
		}
	}
	row.Digest = fmt.Sprintf("%x", h.Sum(nil))
	row.Final = c.Stats()
	return row
}

func checkpoint(h hash.Hash, c *Cache, peers int) {
	fmt.Fprintf(h, "K %v\nS %+v %d %d\n", c.Keys(), c.Stats(), c.Len(), c.Capacity())
	// One id past either end too: peers the cache never saw.
	for n := int32(0); n <= int32(3*peers+1); n++ {
		fmt.Fprintf(h, "P %d %d %d\n", n, c.Share(n), c.Resident(n))
	}
}

// TestScriptGolden replays a seeded script of mixed calls against every
// cache configuration and compares what it saw with
// testdata/script_golden.json, recorded from the map-and-pointer-list
// cache before it became one slot table: the LRU and adaptive victim
// orders are pinned call for call.
func TestScriptGolden(t *testing.T) {
	got := make(map[string]scriptRow)
	for _, sc := range scriptCases() {
		got[sc.name] = runScript(sc)
	}
	if *updateScriptGolden {
		b, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(scriptGoldenFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(scriptGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]scriptRow
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d cases, golden has %d", len(got), len(want))
	}
	for name, g := range got {
		w := want[name]
		if reflect.DeepEqual(g, w) {
			continue
		}
		at := "the last stretch"
		for i := range g.Checkpoints {
			if i >= len(w.Checkpoints) || g.Checkpoints[i] != w.Checkpoints[i] {
				at = fmt.Sprintf("ops %d-%d", i*scriptEvery+1, (i+1)*scriptEvery)
				break
			}
		}
		t.Errorf("%s: diverges from the golden in %s: final %+v, want %+v", name, at, g.Final, w.Final)
	}
}
