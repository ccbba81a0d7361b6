// Command benchmark is the host-clock ledger of the xlupc simulator: four
// workloads, each verified against an oracle the benchmark computes
// itself, timed end to end on the host clock, and — in a traced run —
// taken apart layer by layer. See README.md.
//
//	bash benchmark/run.sh -workload chase_cached -seed 1 -seconds 15 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Without -workload every
// workload runs in turn, each in a child process of its own.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// value is one metric of the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// summary describes the samples behind one end-to-end metric. The result
// line reports Min, the best repetition: the program is deterministic, so
// repetitions differ only by what else the host was doing, which on a
// shared sandbox only ever adds time, and their minimum repeats from run
// to run more closely than their median.
type summary struct {
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// detail is everything one workload's run measured; it is printed
// before the result line and is what -out stores.
type detail struct {
	Workload  string             `json:"workload"`
	Smoke     bool               `json:"smoke"`
	Seed      int64              `json:"seed"`
	Go        string             `json:"go"`
	CPUs      int                `json:"cpus"`
	Sizes     any                `json:"sizes"`
	OpsPerRep int64              `json:"ops_per_rep"`
	OpsPerS   float64            `json:"ops_per_s"` // ops_per_rep / best wall_s, for legibility
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	FailShare float64            `json:"fail_share"`
	Correct   bool               `json:"correct"`
	Problems  []string           `json:"problems,omitempty"`
	EndToEnd  map[string]summary `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"` // traced runs only
	Reps      []rep              `json:"reps"`
	Spans     []span             `json:"spans,omitempty"`
}

// plan says how long and how deep one workload's run measures.
type plan struct {
	budget  time.Duration // untraced reps repeat until this much time has passed
	trace   bool
	smoke   bool // toy sizes: one rep, one short pass of each driver
	seed    int64
	scratch string // directory for profiles and built binaries
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func summarize(unit string, xs []float64) summary {
	s := summary{Unit: unit, N: len(xs), Median: median(xs)}
	for i, x := range xs {
		if i == 0 || x < s.Min {
			s.Min = x
		}
		if i == 0 || x > s.Max {
			s.Max = x
		}
	}
	return s
}

// measure runs one workload under p.
func measure(w *workload, p plan) (*detail, error) {
	d := &detail{
		Workload: w.name, Smoke: p.smoke, Seed: p.seed, Go: runtime.Version(),
		CPUs: runtime.NumCPU(), Sizes: w.sizes, OpsPerRep: w.opsPerRep,
		EndToEnd: map[string]summary{},
	}
	var rec *recorder
	if p.trace {
		rec = newRecorder(w.name)
	}
	if err := w.prepare(rec); err != nil {
		return nil, err
	}

	// End-to-end numbers come from untraced reps only. A traced run
	// spends half its budget on them, as the baseline of the overhead.
	budget := p.budget
	if p.trace {
		budget /= 2
	}
	// peak_rss_mb is read after the first rep, so that it does not grow
	// with the number of reps a fast host fits into the budget.
	start := time.Now()
	d.Reps = append(d.Reps, w.run(0, nil, ""))
	rss := selfMaxRSSMB()
	if child := d.Reps[0].RSSMB; child > 0 {
		rss = child // the workload ran in a subprocess
	}
	for i := 1; time.Since(start) < budget; i++ {
		d.Reps = append(d.Reps, w.run(i, nil, ""))
	}
	var wall, cpu, setup []float64
	for _, r := range d.Reps {
		if r.Err != "" {
			continue // a rep that failed outright contributes no timing
		}
		wall, cpu, setup = append(wall, r.WallS), append(cpu, r.CPUS), append(setup, r.SetupS)
	}
	if w.setup != nil {
		var err error
		if setup, err = w.setup(rec); err != nil {
			return nil, err
		}
	}
	if len(wall) == 0 {
		return nil, fmt.Errorf("%s: no repetition completed: %s", w.name, d.Reps[0].Err)
	}
	d.EndToEnd["wall_s"] = summarize("s", wall)
	d.EndToEnd["cpu_s"] = summarize("s", cpu)
	d.EndToEnd["setup_s"] = summarize("s", setup)
	d.EndToEnd["peak_rss_mb"] = summarize("MB", []float64{rss})
	d.OpsPerS = float64(w.opsPerRep) / d.EndToEnd["wall_s"].Min

	if p.trace {
		if err := traceRun(w, p, rec, d); err != nil {
			return nil, err
		}
		d.Spans = rec.spans
	}

	// Outputs must be identical on every rep: the program is deterministic.
	for _, r := range d.Reps {
		d.Attempted += w.opsPerRep
		d.Failed += r.Failed
		if r.Err != "" {
			d.Problems = append(d.Problems, fmt.Sprintf("rep %d: %s", r.Index, r.Err))
		} else if r.Digest != d.Reps[0].Digest {
			d.Failed += w.opsPerRep - r.Failed
			d.Problems = append(d.Problems, fmt.Sprintf("rep %d: outputs differ from rep 0's (%s vs %s)", r.Index, r.Digest, d.Reps[0].Digest))
		}
	}
	d.FailShare = float64(d.Failed) / float64(d.Attempted)
	d.Correct = d.Failed == 0 && len(d.Problems) == 0
	return d, nil
}

// traceRun adds the traced reps — CPU profile on, spans recorded —
// for a quarter of the budget, then runs the layer drivers, and fills
// d.PerLayer. The profiles of all traced reps are merged.
func traceRun(w *workload, p plan, rec *recorder, d *detail) error {
	var profiles []string
	defer func() {
		for _, f := range profiles {
			os.Remove(f)
		}
	}()
	var traced []rep
	for start := time.Now(); len(traced) == 0 || time.Since(start) < p.budget/4; {
		profile := filepath.Join(p.scratch, fmt.Sprintf("%s.%d.cpu.prof", w.name, len(traced)))
		profiles = append(profiles, profile)
		tr := w.run(len(d.Reps), rec, profile)
		d.Reps = append(d.Reps, tr)
		if tr.Err != "" {
			return fmt.Errorf("%s: traced repetition: %s", w.name, tr.Err)
		}
		traced = append(traced, tr)
	}
	layer, err := profileShares(profiles)
	if err != nil {
		return err
	}
	var wall []float64
	for _, tr := range traced {
		wall = append(wall, tr.WallS)
	}
	untraced := d.EndToEnd["wall_s"].Median
	layer["bench.trace_overhead_pct"] = 100 * (median(wall) - untraced) / untraced
	wholeRunCounts(layer, traced[0], w.opsPerRep, w.opsPerThread, untraced)
	passes, shrink := 3, 1
	if p.smoke {
		passes, shrink = 1, 20
	}
	drivers, err := runDrivers(passes, shrink)
	if err != nil {
		return err
	}
	for k, v := range drivers {
		layer[k] = v
	}
	d.PerLayer = layer
	return nil
}

// wholeRunCounts derives the per-operation counts of one rep. `report`
// runs in a subprocess that exposes no counters, so there they are 0.
func wholeRunCounts(m map[string]float64, r rep, opsPerRep, opsPerThread int64, wallS float64) {
	for _, cm := range countMetrics {
		m[cm.Name] = 0
	}
	c := r.Counts
	if c == nil {
		return
	}
	ops := float64(opsPerRep)
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	const psPerUs = 1e6
	m["sim.events_per_op"] = float64(c.Events) / ops
	m["sim.ns_per_event"] = wallS * 1e9 / float64(c.Events)
	m["fabric.msgs_per_op"] = float64(c.Messages) / ops
	m["fabric.bytes_per_op"] = float64(c.NetBytes) / ops
	m["transport.am_per_op"] = float64(c.AMOps) / ops
	m["transport.rdma_per_op"] = float64(c.RDMAOps) / ops
	m["addrcache.lookups_per_op"] = float64(c.CacheHits+c.CacheMisses) / ops
	m["addrcache.hit_rate"] = ratio(c.CacheHits, c.CacheHits+c.CacheMisses)
	m["addrcache.evictions_per_op"] = float64(c.CacheEvictions) / ops
	m["mem.pins"] = float64(c.Pins)
	m["mem.reg_virt_us"] = float64(c.RegVirtPs) / psPerUs
	m["core.virt_us_per_get"] = ratio(c.GetVirtPs, c.Gets) / psPerUs
	m["core.local_share"] = ratio(c.LocalGets, c.Gets+c.LocalGets)
	m["core.virt_us_per_op"] = float64(c.VirtPs) / psPerUs / float64(opsPerThread)
	m["host.allocs_per_op"] = float64(r.Mallocs) / ops
	m["host.alloc_bytes_per_op"] = float64(r.AllocBytes) / ops
}

func (d *detail) result(trace bool) result {
	res := result{Correct: d.Correct, Attempted: d.Attempted, Failed: d.Failed, Metrics: map[string]value{}}
	if trace {
		for _, m := range perLayerMetrics() {
			res.Metrics[m.Name] = value{d.PerLayer[m.Name], m.Unit}
		}
		return res
	}
	for _, m := range endToEndMetrics {
		res.Metrics[m.Name] = value{d.EndToEnd[m.Name].Min, m.Unit}
	}
	return res
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+" (default: each in turn, in a child process of its own)")
	seed := fs.Int64("seed", 1, "seed of the workload's inputs")
	seconds := fs.Float64("seconds", 15, "how long the untraced repetitions of a workload repeat")
	trace := fs.Int("trace", 0, "1 adds a traced repetition (CPU profile, spans) and the layer drivers, and reports the per-layer metrics")
	smoke := fs.Bool("smoke", false, "toy sizes, one repetition: a plumbing check, not a measurement")
	out := fs.String("out", "", "also write the measurements to this file as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *smoke && *out != "" && !strings.Contains(filepath.Base(*out), "smoke") {
		return errors.New("-out: a smoke run is not a measurement; name its file *smoke* to keep it apart from the ledger")
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return errors.New("-seconds must be positive and -trace 0 or 1")
	}
	if _, err := os.Stat("cmd/xlupc-report"); err != nil {
		return errors.New("run from the root of an xlupc checkout (cmd/xlupc-report not found)")
	}
	scratch, err := filepath.Abs(".bench_build")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}

	if *name == "" {
		return runAll(*out, "-seed", fmt.Sprint(*seed), "-seconds", fmt.Sprint(*seconds),
			"-trace", fmt.Sprint(*trace), fmt.Sprintf("-smoke=%t", *smoke))
	}
	p := plan{
		budget: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1,
		smoke: *smoke, seed: *seed, scratch: scratch,
	}
	sizes := fullSizes
	if *smoke {
		p.budget, sizes = 0, smokeSizes
	}
	w, err := newWorkload(*name, sizes, *seed, scratch)
	if err != nil {
		return err
	}
	d, err := measure(w, p)
	if err != nil {
		return err
	}
	if *out != "" {
		if err := writeJSON(*out, d); err != nil {
			return err
		}
	}
	return printLines(d, d.result(p.trace))
}

// printLines prints the detail document and then, as the last line, the result.
func printLines(docs ...any) error {
	enc := json.NewEncoder(os.Stdout)
	for _, doc := range docs {
		if err := enc.Encode(doc); err != nil {
			return err
		}
	}
	return nil
}

func writeJSON(path string, doc any) error {
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runAll runs every workload in a child process of its own, one at a
// time, so that peak_rss_mb and cpu_s are per workload, and gathers the
// children's detail documents into `out`.
func runAll(out string, childArgs ...string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var all []json.RawMessage
	correct := true
	var attempted, failed int64
	for _, name := range workloadNames {
		cmd := exec.Command(self, append([]string{"-workload", name}, childArgs...)...)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("workload %s: %w", name, err)
		}
		lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
		if len(lines) != 2 {
			return fmt.Errorf("workload %s: expected a detail and a result line, got %d lines", name, len(lines))
		}
		var res result
		if err := json.Unmarshal([]byte(lines[1]), &res); err != nil {
			return fmt.Errorf("workload %s: %w", name, err)
		}
		correct = correct && res.Correct
		attempted, failed = attempted+res.Attempted, failed+res.Failed
		all = append(all, json.RawMessage(lines[0]))
	}
	if out != "" {
		if err := writeJSON(out, all); err != nil {
			return err
		}
	}
	return printLines(all, result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]value{}})
}
