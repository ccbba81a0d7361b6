package main

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestCheckRun(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		mark, profile  string
		threads, nodes int
		out            string // an export path; "" = none
		err            string // substring of the error; "" = accepted
	}{
		{"field", "gm", 16, 4, "", ""},
		{"pointer", "lapi", 32, 8, "", ""},
		{"update", "lapi", 16, 4, "", ""},
		{"neighborhood", "tcp", 8, 2, "", `unknown profile "tcp"`},
		{"field", "gm", 16, 4, filepath.Join(dir, "p.prom"), ""},
		{"bogus", "gm", 16, 4, "", `unknown stressmark "bogus"`},
		{"", "gm", 16, 4, "", `unknown stressmark ""`},
		{"field", "bogus", 16, 4, "", `unknown profile "bogus"`},
		{"field", "gm", 0, 4, "", "need positive -threads (0)"},
		{"field", "gm", 3, 2, "", "-threads (3) must be a multiple of -nodes (2)"},
		{"field", "gm", 16, 4, filepath.Join(dir, "missing", "p.prom"), "no such file or directory"},
	} {
		prof, files, err := checkRun(c.mark, c.profile, c.threads, c.nodes, c.out)
		if c.err == "" {
			if err != nil || prof == nil || prof.Name != c.profile {
				t.Errorf("checkRun(%q, %q, %d, %d, %q) = %v, %v; want profile %s", c.mark, c.profile, c.threads, c.nodes, c.out, prof, err, c.profile)
				continue
			}
			if (files[0] != nil) != (c.out != "") {
				t.Errorf("checkRun(%q, %q, %d, %d, %q): export file %v", c.mark, c.profile, c.threads, c.nodes, c.out, files[0])
			}
			if files[0] != nil {
				files[0].Close()
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.err) {
			t.Errorf("checkRun(%q, %q, %d, %d, %q): error %v, want one mentioning %q", c.mark, c.profile, c.threads, c.nodes, c.out, err, c.err)
		}
	}
}
