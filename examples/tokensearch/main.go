// tokensearch: a distributed text search — the application class the
// Field stressmark prototypes. A corpus is blocked across threads;
// each thread scans its block (plus an overhang into its neighbour's
// block, so matches spanning block boundaries are not lost) and counts
// occurrences of a set of tokens.
//
// The example contrasts the two transport models: on GM (no
// computation/communication overlap) the overhang GETs of early
// finishers stall behind busy target CPUs unless the address cache
// turns them into RDMA, while on LAPI the dedicated communication
// processor hides the difference — the paper's §4.6/§4.7 analysis in
// miniature.
//
//	go run ./examples/tokensearch
package main

import (
	"fmt"
	"log"

	"xlupc/internal/core"
	"xlupc/internal/sim"
	"xlupc/internal/transport"
)

const (
	threads = 16
	nodes   = 4
	block   = 32 << 10 // corpus bytes per thread
	tokens  = 12
	tokLen  = 6
	sample  = 4 << 10 // cross-block statistics sample bytes
)

func run(prof *transport.Profile, cache core.CacheConfig) (sim.Time, uint64) {
	rt, err := core.NewRuntime(core.Config{
		Threads: threads, Nodes: nodes, Profile: prof, Cache: cache, Seed: 5,
	})
	if err != nil {
		log.Fatal(err)
	}
	var total uint64
	counts := make([]uint64, threads)
	st, err := rt.Run(func(t *core.Thread) {
		n := int64(block * threads)
		corpus := t.AllAlloc("corpus", n, 1, block)

		// Fill the local block with a 4-letter alphabet text.
		lo := int64(t.ID()) * block
		buf := make([]byte, block)
		for i := range buf {
			buf[i] = byte('a' + sim.SplitMix64(uint64(lo)+uint64(i))%4)
		}
		t.PutBulk(corpus.At(lo), buf)
		t.Barrier()

		var found uint64
		for round := 0; round < tokens; round++ {
			tok := make([]byte, tokLen)
			for i := range tok {
				tok[i] = byte('a' + sim.SplitMix64(uint64(round)*17+uint64(i))%4)
			}

			// Local scan (modeled compute, data-dependent speed) ...
			local := make([]byte, block)
			t.GetBulk(local, corpus.At(lo))
			jitter := 700 + sim.Time(sim.SplitMix64(uint64(round)*131+uint64(t.ID()))%601)
			t.Compute(sim.Time(block) * 2 * sim.Ns * jitter / 1000)

			// ... a statistics sample from the same slot on the next
			// node (always off-node), landing while other CPUs are
			// mid-scan ...
			stat := make([]byte, sample)
			statBase := ((int64(t.ID()) + int64(t.ThreadsPerNode())) % threads) * block
			t.GetBulk(stat, corpus.At(statBase))
			found += uint64(stat[round%sample]) & 1

			// ... plus the overhang into the neighbour's block, so
			// boundary-spanning matches are not lost.
			succ := (lo + block) % n
			ext := make([]byte, tokLen-1)
			t.GetBulk(ext, corpus.At(succ))
			text := append(local, ext...)

			for i := 0; i+tokLen <= len(text); i++ {
				match := true
				for j := 0; j < tokLen; j++ {
					if text[i+j] != tok[j] {
						match = false
						break
					}
				}
				if match {
					found++
					i += tokLen - 1
				}
			}
			t.Barrier()
		}
		counts[t.ID()] = found
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, c := range counts {
		total += c
	}
	return st.Elapsed, total
}

func main() {
	fmt.Printf("tokensearch: %d KB corpus across %d threads / %d nodes, %d tokens\n",
		block*threads>>10, threads, nodes, tokens)
	for _, prof := range []*transport.Profile{transport.GM(), transport.LAPI()} {
		z, c0 := run(prof, core.NoCache())
		w, c1 := run(prof, core.DefaultCache())
		if c0 != c1 {
			log.Fatalf("%s: match counts diverged: %d vs %d", prof.Name, c0, c1)
		}
		fmt.Printf("%-6s matches=%-6d without=%v  with=%v  improvement=%.1f%%\n",
			prof.Name, c0, z, w, 100*(float64(z)-float64(w))/float64(z))
	}
}
