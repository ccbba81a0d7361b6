package bench

import (
	"io"
	"strings"
	"testing"

	"xlupc/internal/transport"
)

// The assertions below encode the *shapes* of the paper's figures —
// who wins, signs, and rough magnitudes — at reduced scale so the
// whole file runs in seconds. EXPERIMENTS.md records the full-scale
// numbers produced by cmd/xlupc-report.

func TestFig6GetShapes(t *testing.T) {
	sizes := []int{16, 4 << 10, 4 << 20}
	gm := Sweep{Seed: 1}.MicroSweep(OpGet, transport.GM(), sizes, 4)
	lapi := Sweep{Seed: 1}.MicroSweep(OpGet, transport.LAPI(), sizes, 4)

	// GM: ~30% small, ~40% mid, ~0 at 4MB.
	if gm[0].Improvement < 25 || gm[0].Improvement > 45 {
		t.Errorf("GM small GET improvement %.1f%%, want ~30%%", gm[0].Improvement)
	}
	if gm[1].Improvement < gm[0].Improvement {
		t.Errorf("GM mid GET improvement %.1f%% should exceed small %.1f%%",
			gm[1].Improvement, gm[0].Improvement)
	}
	if gm[2].Improvement > 5 {
		t.Errorf("GM 4MB GET improvement %.1f%%, want ~0 (bandwidth bound)", gm[2].Improvement)
	}
	// LAPI: ~16% small, larger mid, ~0 at 4MB; smaller than GM small.
	if lapi[0].Improvement < 10 || lapi[0].Improvement > 30 {
		t.Errorf("LAPI small GET improvement %.1f%%, want ~16%%", lapi[0].Improvement)
	}
	if lapi[0].Improvement >= gm[0].Improvement {
		t.Errorf("LAPI small gain %.1f%% should be below GM %.1f%%",
			lapi[0].Improvement, gm[0].Improvement)
	}
	if lapi[2].Improvement > 5 {
		t.Errorf("LAPI 4MB GET improvement %.1f%%, want ~0", lapi[2].Improvement)
	}
}

func TestFig6PutShapes(t *testing.T) {
	sizes := []int{16, 4 << 10}
	gm := Sweep{Seed: 1}.MicroSweep(OpPut, transport.GM(), sizes, 4)
	lapi := Sweep{Seed: 1}.MicroSweep(OpPut, transport.LAPI(), sizes, 4)

	// GM: no benefit for small PUTs, positive mid-size.
	if gm[0].Improvement < -10 || gm[0].Improvement > 10 {
		t.Errorf("GM small PUT improvement %.1f%%, want ~0", gm[0].Improvement)
	}
	if gm[1].Improvement < 10 {
		t.Errorf("GM 4KB PUT improvement %.1f%%, want positive", gm[1].Improvement)
	}
	// LAPI: strongly negative for small PUTs (the reason the paper
	// disabled PUT caching there). The paper reports down to -200%.
	if lapi[0].Improvement > -100 {
		t.Errorf("LAPI small PUT improvement %.1f%%, want <= -100%%", lapi[0].Improvement)
	}
}

func TestLAPIPutCacheDisabledByDefault(t *testing.T) {
	// Without ForcePutCache, LAPI PUTs must not regress: the runtime
	// follows the paper and skips the cache for LAPI PUTs.
	o := MicroOpts{Prof: transport.LAPI(), Size: 16, Reps: 4}
	z := Sweep{Seed: 1}.MicroLatency(OpPut, false, o)
	w := Sweep{Seed: 1}.MicroLatency(OpPut, true, o)
	if w.Mean() > z.Mean()*1.05 {
		t.Errorf("default LAPI PUT with cache %.2fus regressed vs %.2fus", w.Mean(), z.Mean())
	}
}

func TestFig7Envelope(t *testing.T) {
	gm, lapi := Sweep{Seed: 1}.PrintFig7(io.Discard, 4)
	for _, p := range gm {
		if p.WithUs >= p.WithoutUs {
			t.Errorf("GM %dB: cached %.2fus not below uncached %.2fus", p.Size, p.WithUs, p.WithoutUs)
		}
	}
	// Small-message roundtrips sit in the few-microsecond envelope.
	if gm[0].WithoutUs < 3 || gm[0].WithoutUs > 20 {
		t.Errorf("GM 1B uncached latency %.2fus out of envelope", gm[0].WithoutUs)
	}
	if lapi[0].WithoutUs < 3 || lapi[0].WithoutUs > 20 {
		t.Errorf("LAPI 1B uncached latency %.2fus out of envelope", lapi[0].WithoutUs)
	}
}

func TestFig8Shapes(t *testing.T) {
	scales := GMScales(64) // 8-2 … 64-16
	caps := []int{4, 10, 100}
	ptr := Sweep{Seed: 1}.Fig8("pointer", scales, caps)
	nbr := Sweep{Seed: 1}.Fig8("neighborhood", scales, caps)

	at := func(pts []HitRatePoint, capIdx, scaleIdx int) float64 {
		return pts[capIdx*len(scales)+scaleIdx].HitRate
	}
	last := len(scales) - 1
	// Pointer: hit rate degrades with node count, earlier for smaller
	// caches; capacity ordering holds at the largest scale.
	if !(at(ptr, 0, last) < at(ptr, 1, last) && at(ptr, 1, last) < at(ptr, 2, last)) {
		t.Errorf("pointer hit rates not ordered by capacity: %v %v %v",
			at(ptr, 0, last), at(ptr, 1, last), at(ptr, 2, last))
	}
	if !(at(ptr, 0, last) < at(ptr, 0, 0)) {
		t.Errorf("pointer 4-entry hit rate did not degrade with scale")
	}
	// Neighborhood: essentially flat and high for every capacity.
	for c := range caps {
		for s := range scales {
			if hr := at(nbr, c, s); hr < 0.9 {
				t.Errorf("neighborhood hit rate %.2f at cap %d scale %v, want >= 0.9",
					hr, caps[c], scales[s])
			}
		}
	}
}

func TestFig9Shapes(t *testing.T) {
	gm := Sweep{Seed: 1}.Fig9(transport.GM(), GMScales(32))
	lapi := Sweep{Seed: 1}.Fig9(transport.LAPI(), LAPIScales(16))

	byMark := func(pts []Fig9Point, mark string) []float64 {
		var out []float64
		for _, p := range pts {
			if p.Mark == mark {
				out = append(out, p.Improvement)
			}
		}
		return out
	}
	// GM: every stressmark improves; Pointer the most.
	for _, mark := range []string{"pointer", "update", "neighborhood", "field"} {
		for _, v := range byMark(gm, mark) {
			if v < 5 {
				t.Errorf("GM %s improvement %.1f%%, want clearly positive", mark, v)
			}
		}
	}
	gmPtr, gmField := byMark(gm, "pointer"), byMark(gm, "field")
	if gmPtr[len(gmPtr)-1] < 30 {
		t.Errorf("GM pointer improvement %.1f%%, want >= 30%%", gmPtr[len(gmPtr)-1])
	}
	// LAPI: pointer/update/neighborhood comparable (positive), field
	// not measurable (paper: ≈0; allow a small band).
	for _, mark := range []string{"pointer", "update", "neighborhood"} {
		for _, v := range byMark(lapi, mark) {
			if v < 3 {
				t.Errorf("LAPI %s improvement %.1f%%, want positive", mark, v)
			}
		}
	}
	lapiField := byMark(lapi, "field")
	for i, v := range lapiField {
		if v < -10 || v > 15 {
			t.Errorf("LAPI field improvement %.1f%% at %d, want ≈0", v, i)
		}
	}
	// The overlap contrast: GM field gain clearly exceeds LAPI's.
	if gmField[0] <= lapiField[0]+5 {
		t.Errorf("GM field %.1f%% should clearly exceed LAPI field %.1f%%", gmField[0], lapiField[0])
	}
}

func TestMissOverheadClaim(t *testing.T) {
	// §6: "typically 1.5% and never worse than 2%".
	for _, prof := range []*transport.Profile{transport.GM(), transport.LAPI()} {
		pct := Sweep{Seed: 1}.MissOverhead(prof)
		if pct > 2.0 {
			t.Errorf("%s miss overhead %.2f%%, want <= 2%%", prof.Name, pct)
		}
		if pct < 0 {
			t.Errorf("%s miss overhead %.2f%% negative: measurement broken", prof.Name, pct)
		}
	}
}

func TestPinUsageClaim(t *testing.T) {
	// §4.5: a pinned address table of 10 entries is more than enough.
	peaks := Sweep{Seed: 1}.PinUsage(transport.GM(), Scale{Threads: 16, Nodes: 4})
	for mark, peak := range peaks {
		if peak > 10 {
			t.Errorf("%s peak pinned entries %d, want <= 10", mark, peak)
		}
		if peak == 0 {
			t.Errorf("%s pinned nothing; RDMA path unused", mark)
		}
	}
}

func TestPrintersProduceTables(t *testing.T) {
	var sb strings.Builder
	Sweep{Seed: 1}.PrintFig8(&sb, "pointer", GMScales(16), []int{4})
	if !strings.Contains(sb.String(), "threads-nodes") || !strings.Contains(sb.String(), "8-2") {
		t.Errorf("Fig8 table malformed:\n%s", sb.String())
	}
	sb.Reset()
	Sweep{Seed: 1}.PrintFig9(&sb, transport.GM(), GMScales(8))
	if !strings.Contains(sb.String(), "pointer") || !strings.Contains(sb.String(), "field") {
		t.Errorf("Fig9 table malformed:\n%s", sb.String())
	}
}

func TestScalesMatchPaperAxes(t *testing.T) {
	gm := GMScales(2048)
	if gm[0] != (Scale{8, 2}) || gm[len(gm)-1] != (Scale{2048, 512}) {
		t.Errorf("GM scales %v do not span 8-2..2048-512", gm)
	}
	for _, s := range gm {
		if s.Threads != 4*s.Nodes {
			t.Errorf("GM scale %v is not 4 threads/node", s)
		}
	}
	lapi := LAPIScales(448)
	if lapi[len(lapi)-1] != (Scale{448, 28}) {
		t.Errorf("LAPI scales %v do not end at 448-28", lapi)
	}
}

func TestFig9CIMethodology(t *testing.T) {
	s := Sweep{Seed: 1}.Fig9CI("pointer", transport.GM(), Scale{Threads: 8, Nodes: 2}, 4)
	if s.N() != 4 {
		t.Fatalf("reps = %d", s.N())
	}
	if s.Mean() < 20 {
		t.Fatalf("mean improvement %.1f%% implausibly low", s.Mean())
	}
	if s.CI95() < 0 || s.CI95() > s.Mean() {
		t.Fatalf("ci %.2f out of range for mean %.2f", s.CI95(), s.Mean())
	}
	var sb strings.Builder
	Sweep{Seed: 1}.PrintFig9CI(&sb, transport.GM(), GMScales(8), 2)
	if !strings.Contains(sb.String(), "±") {
		t.Fatalf("CI table lacks intervals:\n%s", sb.String())
	}
}
