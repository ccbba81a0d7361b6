package main

import (
	"math"
	"strings"
	"testing"
)

// defaults are the command's flag defaults.
func defaults() kvFlags {
	return kvFlags{
		profile: "both", threads: 8, nodes: 4, ops: 200, keys: 4096,
		thetas: "0,0.9,0.99", readmix: "0.9", rate: 150000, sloUs: 200,
		losses: "0,0.01,0.05", crashes: "0,0.1", restartUs: 150, seed: 1,
	}
}

func TestPlanFor(t *testing.T) {
	for _, c := range []struct {
		name string
		edit func(*kvFlags)
		err  string // substring of the error; "" = accepted
	}{
		{"defaults", func(*kvFlags) {}, ""},
		{"one profile", func(f *kvFlags) { f.profile = "lapi" }, ""},
		{"closed loop, no curves", func(f *kvFlags) { f.rate, f.losses, f.crashes = 0, "", "" }, ""},
		{"pure reads", func(f *kvFlags) { f.readmix = "1" }, ""},
		{"unknown profile", func(f *kvFlags) { f.profile = "myrinet" }, `unknown profile "myrinet"`},
		{"threads not a multiple", func(f *kvFlags) { f.threads = 6 }, "-threads (6) must be a multiple of -nodes (4)"},
		{"no nodes", func(f *kvFlags) { f.nodes = 0 }, "need positive -threads (8) and -nodes (0)"},
		{"no ops", func(f *kvFlags) { f.ops = 0 }, "-ops (0) must be positive"},
		{"negative keys", func(f *kvFlags) { f.keys = -1 }, "-keys (-1) must be positive"},
		{"skew of one", func(f *kvFlags) { f.thetas = "0,1" }, `bad -thetas value "1"`},
		{"no skews", func(f *kvFlags) { f.thetas = "" }, "no skew values"},
		{"read mix above one", func(f *kvFlags) { f.readmix = "1.5" }, `bad -readmix value "1.5"`},
		{"no read mix", func(f *kvFlags) { f.readmix = " , " }, "no read-mix values"},
		{"negative rate", func(f *kvFlags) { f.rate = -1 }, "bad -rate -1"},
		{"infinite rate", func(f *kvFlags) { f.rate = math.Inf(1) }, "bad -rate +Inf"},
		{"zero SLO", func(f *kvFlags) { f.sloUs = 0 }, "bad -slo-us 0"},
		{"NaN SLO", func(f *kvFlags) { f.sloUs = math.NaN() }, "bad -slo-us NaN"},
		{"zero restart delay", func(f *kvFlags) { f.restartUs = 0 }, "bad -restart-delay 0"},
		{"restart delay over a second", func(f *kvFlags) { f.restartUs = 2e6 }, "bad -restart-delay 2e+06"},
		{"certain loss", func(f *kvFlags) { f.losses = "0,1" }, `bad -losses value "1"`},
		{"NaN crash rate", func(f *kvFlags) { f.crashes = "NaN" }, `bad -crashes value "NaN"`},
		{"negative parallel", func(f *kvFlags) { f.parallel = -1 }, "-parallel (-1) must not be negative"},
	} {
		f := defaults()
		c.edit(&f)
		p, err := planFor(f)
		if c.err != "" {
			if err == nil || !strings.Contains(err.Error(), c.err) {
				t.Errorf("%s: error %v, want one mentioning %q", c.name, err, c.err)
			}
			continue
		}
		if err != nil || len(p.profs) == 0 || len(p.thetas) == 0 || len(p.mixes) == 0 {
			t.Errorf("%s: %+v, %v; want an accepted plan", c.name, p, err)
		}
	}
}

// The defaults resolve to both transports, the three skews and the
// curve rates the usage text promises.
func TestPlanForDefaults(t *testing.T) {
	p, err := planFor(defaults())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.profs) != 2 || p.profs[0].Name != "gm" || p.profs[1].Name != "lapi" {
		t.Errorf("profiles %v, want gm and lapi", p.profs)
	}
	if len(p.thetas) != 3 || len(p.mixes) != 1 || len(p.losses) != 3 || len(p.crashes) != 2 {
		t.Errorf("thetas %v mixes %v losses %v crashes %v", p.thetas, p.mixes, p.losses, p.crashes)
	}
	if p.base.Ops != 200 || p.base.NumKeys != 4096 || p.sc.Threads != 8 || p.sc.Nodes != 4 {
		t.Errorf("base %+v on %s", p.base, p.sc)
	}
}
