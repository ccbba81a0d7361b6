package main

import (
	"strings"
	"testing"
)

func TestProfileFor(t *testing.T) {
	for _, c := range []struct {
		profile        string
		threads, nodes int
		err            string // substring of the error; "" = accepted
	}{
		{"gm", 16, 4, ""},
		{"lapi", 24, 6, ""},
		{"bgl", 4, 4, ""},
		{"tcp", 1, 1, ""},
		{"myrinet", 16, 4, `unknown profile "myrinet"`},
		{"", 16, 4, `unknown profile ""`},
		{"gm", 10, 4, "-threads (10) must be a multiple of -nodes (4)"},
		{"gm", 0, 4, "need positive -threads (0) and -nodes (4)"},
		{"lapi", 16, -4, "need positive -threads (16) and -nodes (-4)"},
	} {
		prof, err := profileFor(c.profile, c.threads, c.nodes)
		if c.err != "" {
			if err == nil || !strings.Contains(err.Error(), c.err) {
				t.Errorf("profileFor(%q, %d, %d): error %v, want one mentioning %q", c.profile, c.threads, c.nodes, err, c.err)
			}
			continue
		}
		if err != nil || prof == nil || prof.Name != c.profile {
			t.Errorf("profileFor(%q, %d, %d) = %v, %v; want the %s profile", c.profile, c.threads, c.nodes, prof, err, c.profile)
		}
	}
}
