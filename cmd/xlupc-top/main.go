// Command xlupc-top answers the paper's §4.6 question — where does a
// remote access's time actually go? — from the telemetry layer's
// per-operation spans. It runs one DIS stressmark with and without the
// remote address cache and prints, per operation kind, a
// phase-attribution table — how much virtual time went to cache
// probes, wire, waiting for the target CPU, AM handling, SVD
// resolution, registration, copies and DMA service — plus the
// latency-quantile table (P50/P95/P99) of every op/protocol series.
//
// On GM (no computation/communication overlap) the uncached run's GETs
// are dominated by target-CPU/handler time: the target nodes are busy
// computing and the AM handlers queue for the CPU. On LAPI the
// dedicated communication processor absorbs that component.
//
// With -states it prints the paper's Paraver view of the same runs
// instead: the time the threads spent per state (computing, blocked in
// a GET, in the barrier, …) and the longest single GET wait. Without
// the cache on GM the GET waits at Field's overhangs are "abnormally
// large" because the target CPUs are busy scanning; with the cache the
// accesses go over RDMA and the waits collapse.
//
// Usage:
//
//	xlupc-top -bench=field -profile=gm
//	xlupc-top -bench=pointer -profile=lapi -threads 32 -nodes 8
//	xlupc-top -bench=field -chrome trace.json -prom metrics.prom
//	xlupc-top -bench=field -states -prv trace.prv
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"

	"xlupc/internal/bench"
	"xlupc/internal/core"
	"xlupc/internal/dis"
	hostprof "xlupc/internal/prof"
	"xlupc/internal/sim"
	"xlupc/internal/telemetry"
	"xlupc/internal/trace"
	"xlupc/internal/transport"
)

// checkRun validates what the runs are built from — the stressmark, the
// transport and the machine — and creates the export files at outs, so
// that a bad value or an unwritable path fails before the host profiler
// starts or a header is printed. It returns the profile and one file per
// out, nil where the path is empty.
func checkRun(mark, profName string, threads, nodes int, outs ...string) (*transport.Profile, []*os.File, error) {
	if _, err := dis.ByName(mark); err != nil {
		return nil, nil, err
	}
	prof := transport.ByName(profName)
	if prof == nil {
		return nil, nil, fmt.Errorf("unknown profile %q", profName)
	}
	if err := bench.ValidateScale(threads, nodes); err != nil {
		return nil, nil, err
	}
	files := make([]*os.File, len(outs))
	for i, path := range outs {
		if path == "" {
			continue
		}
		var err error
		if files[i], err = os.Create(path); err != nil {
			for _, f := range files[:i] {
				f.Close() // a nil *os.File's Close is a no-op error
			}
			return nil, nil, err
		}
	}
	return prof, files, nil
}

func main() {
	mark := flag.String("bench", "field", "DIS stressmark to profile")
	profName := flag.String("profile", "gm", "transport profile (gm, lapi)")
	threads := flag.Int("threads", 16, "UPC threads")
	nodes := flag.Int("nodes", 4, "cluster nodes")
	seed := flag.Int64("seed", 1, "simulation seed")
	chrome := flag.String("chrome", "", "write the cached run's spans as Chrome trace-event JSON to this file")
	prom := flag.String("prom", "", "write the cached run's metrics in Prometheus text format to this file")
	states := flag.Bool("states", false, "print the per-thread-state time breakdown instead of the phase tables")
	prv := flag.String("prv", "", "write the cached run's state intervals as Paraver-like records to this file")
	pf := hostprof.Register(nil)
	flag.Parse()

	prof, files, err := checkRun(*mark, *profName, *threads, *nodes, *prv, *chrome, *prom)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xlupc-top: %v\n", err)
		os.Exit(2)
	}
	prvFile, chromeFile, promFile := files[0], files[1], files[2]
	sc := bench.Scale{Threads: *threads, Nodes: *nodes}
	stopProf := pf.MustStart("xlupc-top")

	// Everything goes through one buffered, flush-checked writer: a
	// full disk or closed pipe must turn into a nonzero exit, not a
	// silently truncated table.
	w := bufio.NewWriter(os.Stdout)
	fail := func(err error) {
		w.Flush()
		fmt.Fprintf(os.Stderr, "xlupc-top: %v\n", err)
		stopProf()
		os.Exit(1)
	}

	view := "phase attribution of operation time"
	if *states {
		view = "per-state time breakdown"
	}
	fmt.Fprintf(w, "# %s on %s, %d threads / %d nodes — %s\n", *mark, prof.Name, *threads, *nodes, view)

	var cachedTel *telemetry.Telemetry
	var getWait [2]sim.Time // uncached, cached
	for i, cached := range []bool{false, true} {
		cc, label := core.NoCache(), "without cache"
		if cached {
			cc, label = core.DefaultCache(), "with cache"
		}
		tel, st, err := bench.Sweep{Seed: *seed}.PhaseRun(*mark, prof, sc, cc)
		if err != nil {
			fail(err)
		}
		if cached {
			cachedTel = tel
		}
		if *states {
			tr := trace.FromSpans(tel)
			fmt.Fprintf(w, "\n%-13s  (virtual time %v)\n", label, st.Elapsed)
			for _, p := range tr.Profiles() {
				fmt.Fprintf(w, "  %-12s %12v  %5.1f%%\n", p.State, p.Total, 100*p.Share)
			}
			worst := tr.MaxInterval(trace.StateGetWait)
			fmt.Fprintf(w, "  longest single GET wait: %v (thread %d)\n", worst.Dur(), worst.Thread)
			getWait[i] = tr.TotalByState()[trace.StateGetWait]
			continue
		}
		fmt.Fprintf(w, "\n%s  (virtual time %v, %d msgs, %d AM, %d RDMA, cache hit rate %.1f%%)\n",
			label, st.Elapsed, st.Messages, st.AMOps, st.RDMAOps, 100*st.Cache.HitRate())
		if err := bench.PrintPhaseTables(w, tel, "get", "put", "barrier"); err != nil {
			fail(err)
		}
		if err := tel.WriteQuantiles(w); err != nil {
			fail(err)
		}
	}

	if *states && getWait[0] > 0 {
		fmt.Fprintf(w, "\nGET wait time reduction from the cache: %.1f%%\n",
			100*(float64(getWait[0])-float64(getWait[1]))/float64(getWait[0]))
	}
	if prvFile != nil {
		if err := writeExport(prvFile, trace.FromSpans(cachedTel).WritePRV); err != nil {
			fail(err)
		}
		fmt.Fprintf(w, "trace records written to %s\n", *prv)
	}
	if chromeFile != nil {
		if err := writeExport(chromeFile, cachedTel.WriteChromeTrace); err != nil {
			fail(err)
		}
		fmt.Fprintf(w, "\nChrome trace written to %s (load in chrome://tracing or ui.perfetto.dev)\n", *chrome)
	}
	if promFile != nil {
		if err := writeExport(promFile, cachedTel.WritePrometheus); err != nil {
			fail(err)
		}
		fmt.Fprintf(w, "Prometheus metrics written to %s\n", *prom)
	}
	if err := w.Flush(); err != nil {
		fmt.Fprintf(os.Stderr, "xlupc-top: writing output: %v\n", err)
		stopProf()
		os.Exit(1)
	}
	stopProf()
}

// writeExport writes one exporter's output to f and closes it,
// surfacing write and close errors instead of dropping them: a full
// disk must not leave a silently truncated trace behind.
func writeExport(f *os.File, write func(w io.Writer) error) error {
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %v", f.Name(), err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing %s: %v", f.Name(), err)
	}
	return nil
}
