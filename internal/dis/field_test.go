package dis

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
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
