package bench

import (
	"fmt"
	"io"

	"xlupc/internal/dis"
	"xlupc/internal/transport"
)

// ReportSection is one section of xlupc-report: its title, what the
// paper published for it, and the printer of its body.
type ReportSection struct {
	Title, Paper string
	Print        func(s Sweep, w io.Writer) error
}

// Write prints the section's banner and then its body, over s.
func (sec ReportSection) Write(w io.Writer, s Sweep) error {
	const rule = "=============================================================="
	fmt.Fprintf(w, "\n%s\n%s\npaper: %s\n%s\n", rule, sec.Title, sec.Paper, rule)
	return sec.Print(s, w)
}

// ReportMachines is the largest machine of the report's GM, LAPI and Figure 8
// sweeps and its big-scale point: the paper's largest with full.
func ReportMachines(full bool) (maxGM, maxLAPI, maxFig8 int, big Scale) {
	if full {
		return 2048, 448, 2048, BigScale()
	}
	return 256, 128, 512, Scale{Threads: 8192, Nodes: 256}
}

// Report is xlupc-report's sections in print order, at
// ReportMachines(full), with reps repetitions per latency point and the
// big-scale sweep last with scale. Over one Sweep with a run table
// (WithRunTable) a section reads back the runs an earlier one made, as
// §4.6's two do the uncached GM Field run.
func Report(full bool, reps int, scale bool) []ReportSection {
	maxGM, maxLAPI, maxFig8, big := ReportMachines(full)
	gm, lapi, fig8, caps := GMScales(maxGM), LAPIScales(maxLAPI), GMScales(maxFig8), []int{4, 10, 100}
	secs := []ReportSection{
		{"Figure 6 (left): GET latency improvement",
			"GM ~30% / LAPI ~16% small; ~40% mid (1-16KB); fading to 0 when bandwidth-bound",
			func(s Sweep, w io.Writer) error { s.PrintFig6(w, OpGet, reps); return nil }},
		{"Figure 6 (right): PUT latency improvement",
			"GM ~0 small then positive mid; LAPI negative down to ~-200% (hence PUT cache disabled on LAPI)",
			func(s Sweep, w io.Writer) error { s.PrintFig6(w, OpPut, reps); return nil }},
		{"Figure 7: absolute GET latency, small messages",
			"both transports in the few-microsecond range; cached consistently below uncached",
			func(s Sweep, w io.Writer) error { s.PrintFig7(w, reps); return nil }},
		{"Figure 8a: Pointer hit rate vs scale and cache size",
			"degrades with node count, earlier for smaller caches",
			func(s Sweep, w io.Writer) error { s.PrintFig8(w, "pointer", fig8, caps); return nil }},
		{"Figure 8b: Neighborhood hit rate vs scale and cache size",
			"insignificantly small working set: flat, high hit rate at every size",
			func(s Sweep, w io.Writer) error { s.PrintFig8(w, "neighborhood", fig8, caps); return nil }},
		{"Figure 9a: DIS stressmarks, hybrid GM",
			"Pointer 30-60%, Update 11-22%, Neighborhood 10-20%, Field 35-40%",
			func(s Sweep, w io.Writer) error { s.PrintFig9(w, transport.GM(), gm); return nil }},
		{"Figure 9b: DIS stressmarks, hybrid LAPI",
			"Pointer/Update/Neighborhood comparable to GM; Field not measurable (~0)",
			func(s Sweep, w io.Writer) error { s.PrintFig9(w, transport.LAPI(), lapi); return nil }},
		{"Miss overhead (conclusions, §6)",
			"unsuccessful caching attempts cost typically 1.5%, never worse than 2%",
			func(s Sweep, w io.Writer) error { s.PrintMissOverhead(w); return nil }},
		{"Pinned address table occupancy (§4.5)",
			"a table of 10 entries is more than enough for well-behaved UPC applications",
			func(s Sweep, w io.Writer) error {
				peaks := s.PinUsage(transport.GM(), Scale{Threads: 16, Nodes: 4})
				for _, m := range dis.Suite() {
					fmt.Fprintf(w, "%14s peak pinned entries: %d\n", m.Name, peaks[m.Name])
				}
				return nil
			}},
		{"Reliability: RDMA NACKs and chaos counters by transport",
			"NACK/invalidate/fallback keeps pin-starved runs correct; reliable delivery absorbs 2% loss (see xlupc-chaos for curves)",
			func(s Sweep, w io.Writer) error { s.PrintReliability(w); return nil }},
		{"SVD metadata footprint (§2.1)",
			"directory replicas stay O(objects) per node; the rejected full table is O(nodes x objects)",
			func(_ Sweep, w io.Writer) error { PrintFootprint(w); return nil }},
		{"Field analysis (§4.6)",
			"without the cache, remote access times at the overhangs are abnormally large on GM; RDMA removes the target CPU from the path",
			func(s Sweep, w io.Writer) error { s.PrintFieldTrace(w); return nil }},
		{"Phase attribution (§4.6, telemetry)",
			"the abnormal GM access times are target-CPU time: AM handlers stall behind the busy compute CPU; LAPI's dedicated comm processor absorbs them",
			func(s Sweep, w io.Writer) error { s.PrintPhaseBreakdown(w); return nil }},
	}
	if scale {
		secs = append(secs, ReportSection{"Big-scale sweep: the simulator's own cost at scale",
			"n/a — host-side scaling figure; only the virtual columns are deterministic",
			func(s Sweep, w io.Writer) error { _, err := s.PrintScale(w, big); return err }})
	}
	return secs
}
