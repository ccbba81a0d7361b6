package bench

import (
	"os"
	"strings"
	"testing"
)

// smallBig scales the checked-in sweep point down to test size.
func smallBig() BigOpts {
	o := DefaultBigOpts()
	o.Threads = 256
	o.Nodes = 16
	return o
}

// TestScalePrint exercises the printer at test scale (it is what
// cmd/xlupc-report -scale runs at 32k).
func TestScalePrint(t *testing.T) {
	var out strings.Builder
	sp, err := PrintScale(&out, smallBig())
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

// BenchmarkBigScaleCont times the sweep point under -benchmem; the CI
// smoke (ci_smoke_test.go) compares the full point against the
// checked-in baseline. The default benchmark
// scale is reduced from the 32k acceptance point so `go test -bench`
// stays affordable; set XLUPC_BENCH_FULL=1 to run the full point.
func benchBigOpts() BigOpts {
	o := DefaultBigOpts()
	if os.Getenv("XLUPC_BENCH_FULL") == "" {
		o.Threads = 8192
		o.Nodes = 256
	}
	return o
}

func BenchmarkBigScaleCont(b *testing.B) {
	o := benchBigOpts()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp, err := ScaleMark(o)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(sp.EventsPerSec, "events/s")
	}
}
