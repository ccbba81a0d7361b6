package bench

import (
	"fmt"
	"io"

	"xlupc/internal/core"
	"xlupc/internal/svd"
	"xlupc/internal/trace"
	"xlupc/internal/transport"
)

// PrintFootprint emits the §2.1 scalability comparison: per-node
// metadata of an SVD replica holding a typical application's worth of
// shared objects, against the rejected O(nodes×objects) full table, as
// the machine grows to BlueGene scale.
func PrintFootprint(w io.Writer) {
	const objects = 32 // a generous UPC application (§4.5: usually fewer)
	d := svd.NewDirectory(0, 1)
	for i := 0; i < objects; i++ {
		d.Register(&svd.ControlBlock{
			Handle: svd.Handle{Part: svd.AllPartition, Index: d.NextIndex(svd.AllPartition)},
			Name:   "var",
		})
	}
	fmt.Fprintf(w, "%d shared objects; bytes of per-node metadata:\n", objects)
	fmt.Fprintf(w, "%10s %16s %16s\n", "nodes", "SVD replica", "full table")
	for _, nodes := range []int{64, 512, 4096, 32768, 131072} {
		fmt.Fprintf(w, "%10d %16d %16d\n", nodes, d.MetadataBytes(), d.FullTableBytes(nodes))
	}
}

// PrintFieldTrace reproduces the §4.6 Paraver analysis in summary
// form: the share of time the Field stressmark's threads spend blocked
// in remote GETs on GM, with and without the address cache.
func (s Sweep) PrintFieldTrace(w io.Writer) {
	for _, cached := range []bool{false, true} {
		cc := core.NoCache()
		label := "without cache"
		if cached {
			cc = core.DefaultCache()
			label = "with cache"
		}
		tel, _, err := s.PhaseRun("field", transport.GM(), Scale{Threads: 16, Nodes: 4}, cc)
		if err != nil {
			panic(err)
		}
		tr := trace.FromSpans(tel)
		var gw trace.Profile
		for _, p := range tr.Profiles() {
			if p.State == trace.StateGetWait {
				gw = p
			}
		}
		fmt.Fprintf(w, "%-14s GET-wait %v (%.1f%% of traced time), longest single wait %v\n",
			label, gw.Total, 100*gw.Share, tr.MaxInterval(trace.StateGetWait).Dur())
	}
}
