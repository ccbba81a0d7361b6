package main

import (
	"bytes"
	"strings"
	"testing"

	"xlupc/internal/bench"
)

func TestFig8For(t *testing.T) {
	for _, c := range []struct {
		mark       string
		maxThreads int
		parallel   int
		marks      int    // panels
		scales     int    // rows per panel
		err        string // substring of the error; "" = accepted
	}{
		{"both", 512, 0, 2, 7, ""},
		{"pointer", 8, 0, 1, 1, ""},
		{"neighborhood", 64, 0, 1, 4, ""},
		{"field", 16, 0, 1, 2, ""},
		{"bogus", 8, 0, 0, 0, `unknown stressmark "bogus"`},
		{"", 512, 0, 0, 0, `unknown stressmark ""`},
		{"both", 4, 0, 0, 0, "-maxthreads (4) must be at least 8"},
		{"pointer", 7, 0, 0, 0, "-maxthreads (7) must be at least 8"},
		{"both", 0, 0, 0, 0, "-maxthreads (0) must be at least 8"},
		{"both", -1, 0, 0, 0, "-maxthreads (-1) must be at least 8"},
		{"both", 512, -1, 0, 0, "-parallel (-1) must not be negative"},
	} {
		marks, scales, err := fig8For(c.mark, c.maxThreads, c.parallel)
		if c.err != "" {
			if err == nil || !strings.Contains(err.Error(), c.err) {
				t.Errorf("fig8For(%q, %d): error %v, want one mentioning %q", c.mark, c.maxThreads, err, c.err)
			}
			continue
		}
		if err != nil || len(marks) != c.marks || len(scales) != c.scales {
			t.Errorf("fig8For(%q, %d) = %d panels x %d scales, %v; want %d x %d",
				c.mark, c.maxThreads, len(marks), len(scales), err, c.marks, c.scales)
		}
	}
}

// TestFig8Header checks the column heads PrintFig8 gives each -caps
// value: a negative capacity is the unbounded full-table ablation, not
// a count of entries.
func TestFig8Header(t *testing.T) {
	for _, c := range []struct {
		caps []int
		head string // the header line after "threads-nodes"
	}{
		{[]int{4, 10, 100}, "  4 entries 10 entries 100 entries"},
		{[]int{0}, "  0 entries"},
		{[]int{-3}, "  unbounded"},
		{[]int{10, -1}, " 10 entries  unbounded"},
	} {
		var out bytes.Buffer
		bench.Sweep{Seed: 1}.PrintFig8(&out, "pointer", []bench.Scale{{Threads: 8, Nodes: 2}}, c.caps)
		lines := strings.Split(out.String(), "\n")
		got := strings.TrimPrefix(strings.TrimSpace(lines[1]), "threads-nodes")
		if strings.TrimSpace(got) != strings.TrimSpace(c.head) {
			t.Errorf("-caps %v: header %q, want %q", c.caps, lines[1], c.head)
		}
	}
}
