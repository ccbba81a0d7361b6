package bench

import (
	"strings"
	"testing"
)

// smallBig scales the checked-in sweep point down to test size.
func smallBig() Scale { return Scale{Threads: 256, Nodes: 16} }

// TestScalePrint exercises the printer at test scale (it is what
// cmd/xlupc-report -scale runs at 32k).
func TestScalePrint(t *testing.T) {
	var out strings.Builder
	sp, err := Sweep{Seed: 1}.PrintScale(&out, smallBig())
	if err != nil {
		t.Fatal(err)
	}
	if sp.KernelEvents == 0 {
		t.Error("workload processed no kernel events")
	}
	if rows := strings.Count(out.String(), "\n"); rows != 3 {
		t.Errorf("printed %d lines, want a title, a header and one row:\n%s", rows, out.String())
	}
}

// The seed reaches the workload: the sweep point's checksum moves with
// it (xlupc-report -scale passes its -seed through).
func TestScaleSeed(t *testing.T) {
	var sums [2]uint64
	for i := range sums {
		sp, err := Sweep{Seed: int64(i + 1)}.ScaleMark(smallBig())
		if err != nil {
			t.Fatal(err)
		}
		sums[i] = sp.Checksum
	}
	if sums[0] == sums[1] {
		t.Errorf("seeds 1 and 2 give the same checksum %x", sums[0])
	}
}

// BenchmarkBigScaleCont times the sweep point at 8k threads on 256
// nodes under -benchmem, a quarter of the 32k acceptance point so `go
// test -bench` stays affordable; TestBenchSmoke32k runs the full point.
func BenchmarkBigScaleCont(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp, err := Sweep{Seed: 1}.ScaleMark(Scale{Threads: 8192, Nodes: 256})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(sp.EventsPerSec, "events/s")
	}
}
