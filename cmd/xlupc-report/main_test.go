package main

import (
	"strings"
	"testing"
)

func TestMachinesFor(t *testing.T) {
	for _, c := range []struct {
		full                    bool
		reps, parallel          int
		maxGM, maxLAPI, maxFig8 int
		err                     string // substring of the error; "" = accepted
	}{
		{false, 10, 0, 256, 128, 512, ""},
		{true, 10, 1, 2048, 448, 2048, ""},
		{false, 1, 4, 256, 128, 512, ""},
		{false, 0, 0, 0, 0, 0, "-reps (0) must be positive"},
		{true, -1, 0, 0, 0, 0, "-reps (-1) must be positive"},
		{false, 10, -1, 0, 0, 0, "-parallel (-1) must not be negative"},
	} {
		gm, lapi, fig8, err := machinesFor(c.full, c.reps, c.parallel)
		if c.err != "" {
			if err == nil || !strings.Contains(err.Error(), c.err) {
				t.Errorf("machinesFor(%v, %d): error %v, want one mentioning %q", c.full, c.reps, err, c.err)
			}
			continue
		}
		if err != nil || gm != c.maxGM || lapi != c.maxLAPI || fig8 != c.maxFig8 {
			t.Errorf("machinesFor(%v, %d) = %d, %d, %d, %v; want %d, %d, %d",
				c.full, c.reps, gm, lapi, fig8, err, c.maxGM, c.maxLAPI, c.maxFig8)
		}
	}
}

// -scale's point is a machine only: it runs at the report's Sweep, so
// at -seed, and -full picks the checked-in 32k / 1k point.
func TestBigOptsFor(t *testing.T) {
	for _, c := range []struct {
		full  bool
		scale string
	}{{false, "8192-256"}, {true, "32768-1024"}} {
		if sc := bigScaleFor(c.full); sc.String() != c.scale {
			t.Errorf("bigScaleFor(%v) = %v, want %s", c.full, sc, c.scale)
		}
	}
}
