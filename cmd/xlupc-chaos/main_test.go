package main

import (
	"math"
	"strings"
	"testing"
)

func TestCheckRun(t *testing.T) {
	for _, c := range []struct {
		mark           string
		threads, nodes int
		restartUs      float64
		parallel       int
		err            string // substring of the error; "" = accepted
	}{
		{"pointer", 8, 4, 150, 0, ""},
		{"update", 8, 4, 150, 0, ""},
		{"neighborhood", 16, 4, 1e6, 0, ""},
		{"field", 4, 4, 0.5, 0, ""},
		{"bogus", 8, 4, 150, 0, `unknown stressmark "bogus"`},
		{"both", 8, 4, 150, 0, `unknown stressmark "both"`},
		{"pointer", 5, 4, 150, 0, "-threads (5) must be a multiple of -nodes (4)"},
		{"pointer", 8, 0, 150, 0, "-nodes"},
		{"pointer", 8, 4, 0, 0, "bad -restart-delay 0"},
		{"pointer", 8, 4, -1, 0, "bad -restart-delay -1"},
		{"pointer", 8, 4, 2e6, 0, "bad -restart-delay 2e+06"},
		{"pointer", 8, 4, math.NaN(), 0, "bad -restart-delay NaN"},
		{"pointer", 8, 4, math.Inf(1), 0, "bad -restart-delay +Inf"},
		{"pointer", 8, 4, 150, -1, "-parallel (-1) must not be negative"},
	} {
		err := checkRun(c.mark, c.threads, c.nodes, c.restartUs, c.parallel)
		if c.err == "" {
			if err != nil {
				t.Errorf("checkRun(%q, %d, %d, %v): %v, want accepted", c.mark, c.threads, c.nodes, c.restartUs, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.err) {
			t.Errorf("checkRun(%q, %d, %d, %v): error %v, want one mentioning %q", c.mark, c.threads, c.nodes, c.restartUs, err, c.err)
		}
	}
}
