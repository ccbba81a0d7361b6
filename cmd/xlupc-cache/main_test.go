package main

import (
	"strings"
	"testing"
)

func TestFig8For(t *testing.T) {
	for _, c := range []struct {
		mark       string
		maxThreads int
		marks      int    // panels
		scales     int    // rows per panel
		err        string // substring of the error; "" = accepted
	}{
		{"both", 512, 2, 7, ""},
		{"pointer", 8, 1, 1, ""},
		{"neighborhood", 64, 1, 4, ""},
		{"field", 16, 1, 2, ""},
		{"bogus", 8, 0, 0, `unknown stressmark "bogus"`},
		{"", 512, 0, 0, `unknown stressmark ""`},
		{"both", 4, 0, 0, "-maxthreads (4) must be at least 8"},
		{"pointer", 7, 0, 0, "-maxthreads (7) must be at least 8"},
		{"both", 0, 0, 0, "-maxthreads (0) must be at least 8"},
		{"both", -1, 0, 0, "-maxthreads (-1) must be at least 8"},
	} {
		marks, scales, err := fig8For(c.mark, c.maxThreads)
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
