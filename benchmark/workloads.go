package main

// workloads.go defines the three in-process workloads and the
// repetition they share: build a runtime, run the simulated program,
// verify its outputs against what the benchmark computed itself.

import (
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"
)

// rep is the outcome of one repetition of a workload.
type rep struct {
	Index      int     `json:"rep"`
	Traced     bool    `json:"traced"`
	WallS      float64 `json:"wall_s"`
	CPUS       float64 `json:"cpu_s"`
	SetupS     float64 `json:"setup_s,omitempty"`
	RSSMB      float64 `json:"rss_mb,omitempty"` // report only: the child's max RSS
	Failed     int64   `json:"failed"`
	Err        string  `json:"error,omitempty"`
	Digest     string  `json:"digest"` // identity of the outputs; equal on every rep
	Counts     *counts `json:"counts,omitempty"`
	Mallocs    uint64  `json:"mallocs,omitempty"`
	AllocBytes uint64  `json:"alloc_bytes,omitempty"`
}

// workload is one of the benchmark's four. prepare runs once, before
// any timing; run makes one repetition, with a CPU profile written to
// `profile` when that is not empty.
type workload struct {
	name         string
	opsPerRep    int64
	opsPerThread int64 // 0 when the workload has no simulated threads of its own
	sizes        any
	prepare      func(rec *recorder) error
	run          func(index int, rec *recorder, profile string) rep
	// setup, when set, measures set-up apart from the reps (report: a
	// rebuild of the binary). Otherwise set-up is timed inside each rep.
	setup func(rec *recorder) ([]float64, error)
}

// sizes of the in-process workloads. Full sizes keep the shape the
// workloads were chosen for (queue depth, hit rate, read/write mix) at a
// repetition of two to three seconds on the 2-core sandbox, so that one
// run of the benchmark holds several repetitions.
type sizeSet struct {
	ChaseCached chaseSpec
	ChaseAM     chaseSpec
	KV          kvSpec
	Report      reportSpec
}

var fullSizes = sizeSet{
	ChaseCached: chaseSpec{Threads: 2048, Nodes: 64, Elems: 32, Hops: 128, Cached: true, Cont: true},
	ChaseAM:     chaseSpec{Threads: 2048, Nodes: 64, Elems: 32, Hops: 48},
	KV:          kvSpec{Threads: 256, Nodes: 32, Keys: 65536, OpsPerThread: 600, Theta: 0.9, ReadFrac: 0.5},
	Report:      fullReport,
}

// smokeSizes are just long enough (a few tenths of a second) for the CPU
// profile of the traced rep to hold samples.
var smokeSizes = sizeSet{
	ChaseCached: chaseSpec{Threads: 2048, Nodes: 64, Elems: 32, Hops: 128, Cached: true, Cont: true},
	ChaseAM:     chaseSpec{Threads: 512, Nodes: 16, Elems: 32, Hops: 128},
	KV:          kvSpec{Threads: 64, Nodes: 8, Keys: 8192, OpsPerThread: 1000, Theta: 0.9, ReadFrac: 0.5},
	Report:      smokeReport,
}

// inProcess is a workload that runs inside the benchmark's process.
type inProcess struct {
	build  func() (*simRuntime, error)
	run    func(rt *simRuntime, initDone func()) (counts, error)
	verify func() (failed int64, digest string)
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// selfMaxRSSMB is this process's high-water resident set.
func selfMaxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// runRep makes one in-process repetition. wall_s runs from NewRuntime
// to the return of Run; setup_s is the part of it before thread 0's
// initialisation returned.
func (ip inProcess) runRep(w *workload, index int, rec *recorder, profile string) (r rep) {
	r = rep{Index: index, Traced: profile != "", Failed: w.opsPerRep}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	stopProfile, err := startCPUProfile(profile)
	if err != nil {
		r.Err = err.Error()
		return r
	}

	cpu0, t0 := cpuSeconds(), time.Now()
	rt, err := ip.build()
	t1 := time.Now()
	var tInit time.Time
	var c counts
	if err == nil {
		c, err = guard(func() (counts, error) {
			return ip.run(rt, func() { tInit = time.Now() })
		})
	}
	t2, cpu1 := time.Now(), cpuSeconds()
	if perr := stopProfile(); err == nil {
		err = perr
	}
	runtime.ReadMemStats(&ms1)

	r.WallS, r.CPUS = t2.Sub(t0).Seconds(), cpu1-cpu0
	r.Mallocs, r.AllocBytes = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc
	if err != nil {
		r.Err = err.Error()
		return r
	}
	if tInit.IsZero() {
		r.Err = "thread 0 never finished its initialisation"
		return r
	}
	r.SetupS = tInit.Sub(t0).Seconds()
	r.Counts = &c
	t3 := time.Now()
	r.Failed, r.Digest = ip.verify()
	t4 := time.Now()

	rec.add("new_runtime", index, -1, t0, t1)
	run := rec.begin("run", index, -1, t1)
	rec.end(run, t2)
	rec.add("run.init", index, run, t1, tInit)
	rec.add("run.measured", index, run, tInit, t2)
	rec.add("verify", index, -1, t3, t4)
	return r
}

// startCPUProfile profiles this process into path until stop is called;
// with an empty path it does nothing.
func startCPUProfile(path string) (stop func() error, err error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// guard turns a panic on the calling goroutine (a continuation-mode
// body, or kv's key-echo check) into the rep's error.
func guard(f func() (counts, error)) (c counts, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return f()
}

func digestOf(words []uint64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, w := range words {
		for i := range b {
			b[i] = byte(w >> (8 * i))
		}
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// chaseWorkload checks every thread's checksum against the plain-Go
// oracle walked over fill's array (chaseArray, except in the test that
// proves a wrong expectation is caught).
func chaseWorkload(name string, s chaseSpec, seed int64, fill func(chaseSpec, int64) []uint64) *workload {
	w := &workload{name: name, opsPerRep: s.ops(), opsPerThread: int64(s.Hops), sizes: s}
	var want, got []uint64
	w.prepare = func(rec *recorder) error {
		t0 := time.Now()
		want = chaseOracle(s, fill(s, seed))
		rec.add("oracle", -1, -1, t0, time.Now())
		return nil
	}
	ip := inProcess{
		build: func() (*simRuntime, error) { return newChaseRuntime(s, seed) },
		run: func(rt *simRuntime, initDone func()) (c counts, err error) {
			got, c, err = rt.chase(s, seed, initDone)
			return c, err
		},
		verify: func() (int64, string) {
			return int64(len(mismatched(got, want))) * int64(s.Hops), digestOf(got)
		},
	}
	w.run = func(index int, rec *recorder, profile string) rep { return ip.runRep(w, index, rec, profile) }
	return w
}

// kvWorkload checks that every read found its key (all keys are
// preloaded and none is deleted); the key-echo check inside the load
// generator panics, which fails the whole rep.
func kvWorkload(s kvSpec, seed int64) *workload {
	w := &workload{name: "kv_mixed", opsPerRep: s.ops(), opsPerThread: s.OpsPerThread, sizes: s}
	var out kvOutcome
	w.prepare = func(*recorder) error { return nil }
	ip := inProcess{
		build: func() (*simRuntime, error) { return newKVRuntime(s, seed) },
		run: func(rt *simRuntime, initDone func()) (c counts, err error) {
			out, c, err = rt.kvLoad(s, initDone)
			return c, err
		},
		verify: func() (int64, string) {
			failed := out.Reads - out.Found
			if out.Ops != s.ops() {
				failed = s.ops()
			}
			return failed, fmt.Sprintf("%016x/found=%d", out.Checksum, out.Found)
		},
	}
	w.run = func(index int, rec *recorder, profile string) rep { return ip.runRep(w, index, rec, profile) }
	return w
}

// workloadNames lists the workloads in the order BENCHMARK.json does.
var workloadNames = []string{"chase_cached", "chase_am", "kv_mixed", "report"}

func newWorkload(name string, sz sizeSet, seed int64, buildDir string) (*workload, error) {
	switch name {
	case "chase_cached":
		return chaseWorkload(name, sz.ChaseCached, seed, chaseArray), nil
	case "chase_am":
		return chaseWorkload(name, sz.ChaseAM, seed, chaseArray), nil
	case "kv_mixed":
		return kvWorkload(sz.KV, seed), nil
	case "report":
		return reportWorkload(sz.Report, seed, buildDir), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}
