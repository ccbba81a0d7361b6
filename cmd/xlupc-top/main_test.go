package main

import (
	"strings"
	"testing"
)

func TestCheckRun(t *testing.T) {
	for _, c := range []struct {
		mark, profile  string
		threads, nodes int
		err            string // substring of the error; "" = accepted
	}{
		{"field", "gm", 16, 4, ""},
		{"pointer", "lapi", 32, 8, ""},
		{"update", "lapi", 16, 4, ""},
		{"neighborhood", "tcp", 8, 2, ""},
		{"bogus", "gm", 16, 4, `unknown stressmark "bogus"`},
		{"", "gm", 16, 4, `unknown stressmark ""`},
		{"field", "bogus", 16, 4, `unknown profile "bogus"`},
		{"field", "gm", 0, 4, "need positive -threads (0)"},
		{"field", "gm", 3, 2, "-threads (3) must be a multiple of -nodes (2)"},
	} {
		prof, err := checkRun(c.mark, c.profile, c.threads, c.nodes)
		if c.err == "" {
			if err != nil || prof == nil || prof.Name != c.profile {
				t.Errorf("checkRun(%q, %q, %d, %d) = %v, %v; want profile %s", c.mark, c.profile, c.threads, c.nodes, prof, err, c.profile)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.err) {
			t.Errorf("checkRun(%q, %q, %d, %d): error %v, want one mentioning %q", c.mark, c.profile, c.threads, c.nodes, err, c.err)
		}
	}
}
