package main

// report.go is the fourth workload: the program's own report command,
// built from the checkout and run as a subprocess — what people
// actually run. One op is one whole report.

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// reportSpec names the command the workload builds and what its output
// must contain. The smoke run uses the quickest figure command, so the
// same build / exec / compare plumbing runs in under a second.
type reportSpec struct {
	Package string   // relative to the checkout root
	Args    []string // besides -seed
	Headers []string // line prefixes that must appear in stdout
	Builds  int      // timed rebuilds behind setup_s
}

var (
	fullReport = reportSpec{
		Package: "./cmd/xlupc-report", Args: []string{"-parallel", "1"},
		Headers: []string{"# Figure 6", "# Figure 7", "# Figure 8", "# Figure 9"}, Builds: 3,
	}
	smokeReport = reportSpec{
		Package: "./cmd/xlupc-micro", Args: []string{"-parallel", "1"},
		Headers: []string{"# Figure 6"}, Builds: 1,
	}
)

// reportSeeds is how many seeds the report is run with: -seed 1 up to
// reportSeeds, each checked to give a clean report at HEAD. The report
// is not clean for every seed — with -seed 20 its reliability section
// exhausts a packet's retry budget and the command panics — and the
// benchmark must run workloads on which no operation fails.
const reportSeeds = 16

func reportWorkload(spec reportSpec, seed int64, buildDir string) *workload {
	seed = 1 + ((seed-1)%reportSeeds+reportSeeds)%reportSeeds
	w := &workload{name: "report", opsPerRep: 1, sizes: spec}
	bin := filepath.Join(buildDir, "report-bin")
	build := func(out string) error {
		cmd := exec.Command("go", "build", "-o", out, spec.Package)
		if msg, err := cmd.CombinedOutput(); err != nil {
			return fmt.Errorf("go build %s (run the benchmark from the root of the checkout): %w\n%s", spec.Package, err, msg)
		}
		return nil
	}
	// The first build warms the build cache and is not timed.
	w.prepare = func(rec *recorder) error {
		t0 := time.Now()
		err := build(bin)
		rec.add("build", -1, -1, t0, time.Now())
		return err
	}
	// setup_s is what a user pays again after touching the source: a
	// rebuild of the command to a fresh path with the cache warm.
	w.setup = func(rec *recorder) ([]float64, error) {
		var secs []float64
		for i := 0; i < spec.Builds; i++ {
			out := fmt.Sprintf("%s-rebuild-%d", bin, i)
			t0 := time.Now()
			err := build(out)
			t1 := time.Now()
			os.Remove(out)
			if err != nil {
				return nil, err
			}
			rec.add("build", -1, -1, t0, t1)
			secs = append(secs, t1.Sub(t0).Seconds())
		}
		return secs, nil
	}
	w.run = func(index int, rec *recorder, profile string) rep {
		r := rep{Index: index, Traced: profile != "", Failed: 1}
		args := append(append([]string{}, spec.Args...), "-seed", strconv.FormatInt(seed, 10))
		if profile != "" {
			args = append(args, "-cpuprofile", profile)
		}
		cmd := exec.Command(bin, args...)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		t0 := time.Now()
		err := cmd.Run()
		t1 := time.Now()
		rec.add("exec", index, -1, t0, t1)
		if ps := cmd.ProcessState; ps != nil {
			r.CPUS = (ps.UserTime() + ps.SystemTime()).Seconds()
			if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
				r.RSSMB = float64(ru.Maxrss) / 1024
			}
		}
		r.WallS = t1.Sub(t0).Seconds()
		if err != nil {
			r.Err = fmt.Sprintf("%s: %v: %s", spec.Package, err, firstLine(stderr.String()))
			return r
		}
		r.Digest = fmt.Sprintf("%x", sha256.Sum256(stdout.Bytes()))
		if msg := checkReport(stdout.String(), spec.Headers); msg != "" {
			r.Err = msg
		} else {
			r.Failed = 0
		}
		rec.add("compare", index, -1, t1, time.Now())
		return r
	}
	return w
}

// checkReport returns what is wrong with a report's stdout, or "".
func checkReport(out string, headers []string) string {
	lines := strings.Split(out, "\n")
	for _, h := range headers {
		found := false
		for _, l := range lines {
			if strings.HasPrefix(l, h) {
				found = true
				break
			}
		}
		if !found {
			return fmt.Sprintf("report has no %q section", h)
		}
	}
	for _, l := range lines {
		if strings.HasPrefix(l, "!!") {
			return "report flags a divergence: " + l
		}
	}
	return ""
}

func firstLine(s string) string {
	s = strings.TrimSpace(s)
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
