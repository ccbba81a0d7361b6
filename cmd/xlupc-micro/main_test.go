package main

import (
	"strings"
	"testing"

	"xlupc/internal/bench"
)

func TestOpFor(t *testing.T) {
	defaults := microFlags{op: "get", reps: 20}
	for _, c := range []struct {
		name string
		edit func(*microFlags)
		op   bench.Op
		err  string // substring of the error; "" = accepted
	}{
		{"defaults", func(*microFlags) {}, bench.OpGet, ""},
		{"put panel", func(f *microFlags) { f.op = "put" }, bench.OpPut, ""},
		{"one rep", func(f *microFlags) { f.reps = 1 }, bench.OpGet, ""},
		{"figure 7 ignores -op", func(f *microFlags) { f.absolute, f.op = true, "bogus" }, 0, ""},
		{"unknown op", func(f *microFlags) { f.op = "bogus" }, 0, `unknown op "bogus"`},
		{"no reps", func(f *microFlags) { f.reps = 0 }, 0, "-reps (0) must be positive"},
		{"negative reps", func(f *microFlags) { f.coalesce, f.reps = true, -2 }, 0, "-reps (-2) must be positive"},
		{"negative parallel", func(f *microFlags) { f.coalesce, f.parallel = true, -1 }, 0, "-parallel (-1) must not be negative"},
	} {
		f := defaults
		c.edit(&f)
		op, err := opFor(f)
		if c.err != "" {
			if err == nil || !strings.Contains(err.Error(), c.err) {
				t.Errorf("%s: error %v, want one mentioning %q", c.name, err, c.err)
			}
			continue
		}
		if err != nil || op != c.op {
			t.Errorf("%s: op %v, %v; want %v", c.name, op, err, c.op)
		}
	}
}
