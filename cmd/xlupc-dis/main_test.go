package main

import (
	"strings"
	"testing"
)

func TestSweepsFor(t *testing.T) {
	for _, c := range []struct {
		profile    string
		maxThreads int
		reps       int
		rows       []int  // scales per sweep
		err        string // substring of the error; "" = accepted
	}{
		{"both", 512, 1, []int{7, 8}, ""},
		{"gm", 8, 1, []int{1}, ""},
		{"lapi", 4, 1, []int{1}, ""},
		{"lapi", 2048, 1, []int{8}, ""},
		{"gm", 7, 1, nil, "-maxthreads (7) must be at least 8"},
		{"both", 4, 1, nil, "-maxthreads (4) must be at least 8"},
		{"lapi", 3, 1, nil, "-maxthreads (3) must be at least 4"},
		{"both", 0, 1, nil, "-maxthreads (0) must be at least 8"},
		{"gm", -1, 1, nil, "-maxthreads (-1) must be at least 8"},
		{"myrinet", 512, 1, nil, `unknown profile "myrinet"`},
		{"gm", 512, 3, []int{7}, ""},
		{"both", 512, 0, nil, "-reps (0) must be positive"},
		{"gm", 512, -3, nil, "-reps (-3) must be positive"},
	} {
		sweeps, err := sweepsFor(c.profile, c.maxThreads, c.reps)
		if c.err != "" {
			if err == nil || !strings.Contains(err.Error(), c.err) {
				t.Errorf("sweepsFor(%q, %d, %d): error %v, want one mentioning %q", c.profile, c.maxThreads, c.reps, err, c.err)
			}
			continue
		}
		if err != nil || len(sweeps) != len(c.rows) {
			t.Errorf("sweepsFor(%q, %d) = %d sweeps, %v; want %d", c.profile, c.maxThreads, len(sweeps), err, len(c.rows))
			continue
		}
		for i, sw := range sweeps {
			if len(sw.scales) != c.rows[i] {
				t.Errorf("sweepsFor(%q, %d): sweep %d (%s) has %d scales, want %d",
					c.profile, c.maxThreads, i, sw.prof.Name, len(sw.scales), c.rows[i])
			}
		}
	}
}
