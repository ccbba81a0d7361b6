package dis

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"xlupc/internal/core"
	"xlupc/internal/fault"
	"xlupc/internal/flight"
	"xlupc/internal/sim"
	"xlupc/internal/transport"
)

// contiguousMatches is the scan appendMatches replaces: the block and
// the overhang copied into one window, searched front to back.
func contiguousMatches(local, ext, tok []byte, lo, n int64) []int64 {
	scan := append(append([]byte{}, local...), ext...)
	var matches []int64
	for i := 0; i+len(tok) <= len(scan); {
		j := bytes.Index(scan[i:], tok)
		if j < 0 {
			break
		}
		i += j
		matches = append(matches, (lo+int64(i))%n)
		i += len(tok)
	}
	return matches
}

// The split search (block, then the one match that can straddle the
// boundary) must find exactly what the contiguous scan finds — a
// two-letter alphabet and short blocks make boundary and overlapping
// candidates the common case.
func TestAppendMatchesEqualsContiguousScan(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	straddling := 0
	for iter := 0; iter < 20000; iter++ {
		tokLen := rng.Intn(5) + 1
		blk := tokLen + rng.Intn(24)
		letters := func(k int) []byte {
			b := make([]byte, k)
			for i := range b {
				b[i] = byte('a' + rng.Intn(2))
			}
			return b
		}
		local, ext, tok := letters(blk), letters(tokLen-1), letters(tokLen)
		lo, n := int64(blk)*int64(rng.Intn(3)), int64(blk)*3

		edge := make([]byte, 2*(tokLen-1))
		copy(edge[tokLen-1:], ext)
		got := appendMatches(nil, local, edge, tok, lo, n)
		want := contiguousMatches(local, ext, tok, lo, n)
		if !slices.Equal(got, want) {
			t.Fatalf("local %q ext %q tok %q: got %v, want %v", local, ext, tok, got, want)
		}
		if len(want) > 0 && (want[len(want)-1]-lo+n)%n > int64(blk-tokLen) {
			straddling++
		}
	}
	if straddling == 0 {
		t.Fatal("no case had a match across the block boundary; the test is vacuous")
	}
}

// The word-wise sample statistic must equal the byte loop it replaces
// on every kind of sample Field reads: random bytes, all ones, and the
// mark's own 'a'..'d' words with 'Z' delimiters written into them — at
// the sample's length and at shorter whole-word lengths.
func TestLowBitsEqualsByteLoop(t *testing.T) {
	byteLoop := func(b []byte) uint64 {
		var n uint64
		for _, c := range b {
			n += uint64(c) & 1
		}
		return n
	}
	rng := rand.New(rand.NewSource(16))
	random := make([]byte, fieldSampleBytes)
	rng.Read(random)
	ones := bytes.Repeat([]byte{0xFF}, fieldSampleBytes)
	words := make([]byte, fieldSampleBytes)
	for i := range words {
		words[i] = byte('a' + rng.Intn(4))
		if rng.Intn(97) == 0 {
			words[i] = 'Z'
		}
	}
	for name, s := range map[string][]byte{"random": random, "0xFF": ones, "a..d with Z": words} {
		for _, n := range []int{fieldSampleBytes, fieldSampleBytes - 8, 16, 8, 0} {
			if got, want := lowBits(s[:n]), byteLoop(s[:n]); got != want {
				t.Errorf("%s[:%d]: lowBits = %d, byte loop = %d", name, n, got, want)
			}
		}
	}
	if got := lowBits(ones); got != fieldSampleBytes {
		t.Errorf("all-ones sample counts %d, want %d", got, fieldSampleBytes)
	}
}

// fieldModel is Field without the machine: the whole array in one slice,
// round by round, in plain Go. It returns the array at the start of
// every round and, last, its final image — the init words and every 'Z'
// — and the run's checksum. Every thread searches the round's start
// state (its block plus the overhang) and samples it, and all of a
// round's 'Z' writes land before the next round starts.
func fieldModel(threads, perNode int, p Params) ([][]byte, uint64) {
	n := fieldBlock * threads
	a := make([]byte, n)
	for i := range a {
		a[i] = byte('a' + sim.SplitMix64(uint64(i)^(p.Salt*0x9E3779B9))%4)
	}
	var states [][]byte
	sums := make([]uint64, threads)
	tok := make([]byte, fieldTokenLen)
	for rnd := 0; rnd < fieldTokens; rnd++ {
		states = append(states, slices.Clone(a))
		for i := range tok {
			tok[i] = byte('a' + p.hash(uint64(rnd)*31+uint64(i))%4)
		}
		var writes []int
		for th := 0; th < threads; th++ {
			lo := th * fieldBlock
			base := (th + perNode) % threads * fieldBlock
			for seg := 0; seg < fieldSegments; seg++ {
				off := (seg*2311 + rnd*977) % (fieldBlock - fieldSampleBytes)
				for _, c := range a[base+off : base+off+fieldSampleBytes] {
					sums[th] += uint64(c & 1)
				}
			}
			succ := (lo + fieldBlock) % n
			window := append(slices.Clone(a[lo:lo+fieldBlock]), a[succ:succ+fieldTokenLen-1]...)
			for i := 0; i+fieldTokenLen <= len(window); {
				j := bytes.Index(window[i:], tok)
				if j < 0 {
					break
				}
				i += j
				writes = append(writes, (lo+i)%n)
				sums[th]++
				i += fieldTokenLen
			}
		}
		for _, pos := range writes {
			a[pos] = 'Z'
		}
	}
	return append(states, a), Checksum(sums)
}

// TestFieldMatchesModel runs Field and compares it with fieldModel: the
// block each thread scans in every round (its view, after the round's
// snapshot), the checksum, and the array in node memory when the run
// ends, byte for byte. It does so on the modelCases and under the
// crash/restart schedule of bench's TestFieldCrashRelocation, whose
// restarts relocate chunks and leave a thread's view a plain buffer
// that only the snapshot refreshes. Each thread reads its block back
// when the mark calls done, after the last barrier: nothing writes the
// array after that.
func TestFieldMatchesModel(t *testing.T) {
	rc := transport.DefaultRelConfig()
	crash := &core.CrashConfig{CrashConfig: fault.CrashConfig{
		Prob: 0.9, Every: 400 * sim.Us, RestartMin: 75 * sim.Us, RestartMax: 150 * sim.Us,
		Horizon: 20 * sim.Ms, MaxPerNode: 3,
	}}
	cases := append(modelCases[:len(modelCases):len(modelCases)],
		modelCase{"gm/crash-relocation", core.Config{Profile: transport.GM(), Cache: core.DefaultCache(), Rel: &rc, Crash: crash}, Params{}})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg
			cfg.Threads, cfg.Nodes, cfg.Seed = modelThreads, modelNodes, 1
			rt, err := core.NewRuntime(cfg)
			if err != nil {
				t.Fatal(err)
			}
			states, wantCheck := fieldModel(cfg.Threads, cfg.ThreadsPerNode(), c.p)
			final := states[fieldTokens]
			if !slices.Contains(final, 'Z') {
				t.Fatal("the model wrote no 'Z': the comparison is vacuous")
			}
			image := make([]byte, len(final))
			st, check, err := Run(rt, func(th *core.Thread, p Params, done func(uint64)) {
				var m *field
				m = startField(th, p, func(c uint64) {
					copy(image[m.lo:], th.Local(m.a.At(m.lo), fieldBlock))
					done(c)
				})
				scan := m.do.overhung
				m.do.overhung = func() {
					if want := states[m.rnd][m.lo : m.lo+fieldBlock]; !bytes.Equal(m.local, want) {
						t.Errorf("thread %d scanned another block in round %d than the model", th.ID(), m.rnd)
					}
					scan()
				}
			}, c.p)
			if err != nil {
				t.Fatal(err)
			}
			if c.cfg.Crash != nil && st.Flight[flight.KindCrash] == 0 {
				t.Fatal("no node restarted: the crash case is vacuous")
			}
			if check != wantCheck {
				t.Errorf("checksum %x, model %x", check, wantCheck)
			}
			compareImage(t, image, final, fieldBlock)
		})
	}
}
