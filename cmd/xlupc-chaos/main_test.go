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
		err            string // substring of the error; "" = accepted
	}{
		{"pointer", 8, 4, 150, ""},
		{"update", 8, 4, 150, ""},
		{"neighborhood", 16, 4, 1e6, ""},
		{"field", 4, 4, 0.5, ""},
		{"bogus", 8, 4, 150, `unknown stressmark "bogus"`},
		{"both", 8, 4, 150, `unknown stressmark "both"`},
		{"pointer", 5, 4, 150, "-threads (5) must be a multiple of -nodes (4)"},
		{"pointer", 8, 0, 150, "-nodes"},
		{"pointer", 8, 4, 0, "bad -restart-delay 0"},
		{"pointer", 8, 4, -1, "bad -restart-delay -1"},
		{"pointer", 8, 4, 2e6, "bad -restart-delay 2e+06"},
		{"pointer", 8, 4, math.NaN(), "bad -restart-delay NaN"},
		{"pointer", 8, 4, math.Inf(1), "bad -restart-delay +Inf"},
	} {
		err := checkRun(c.mark, c.threads, c.nodes, c.restartUs)
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
