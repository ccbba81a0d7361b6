package flight

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"xlupc/internal/sim"
)

// Total is how many events of kind k every node recorded, all classes:
// the oracle Totals is checked against.
func (r *Recorder) Total(k Kind) int64 {
	var n int64
	for c := ClassNone; c < classCount; c++ {
		n += r.OfClass(k, c)
	}
	return n
}

// ringed returns a recorder for nodes with rings of perNode events.
func ringed(nodes, perNode int) *Recorder {
	r := New(nodes)
	r.AddRings(perNode)
	return r
}

func TestRingWraparound(t *testing.T) {
	r := ringed(2, 4)
	for i := 0; i < 10; i++ {
		r.Record(0, Event{T: sim.Time(i), Kind: KindSend, Seq: uint64(i)})
	}
	if got := r.OfNode(0, KindSend); got != 10 {
		t.Fatalf("OfNode(0, send) = %d, want 10: the count survives wraparound", got)
	}
	evs := r.Node(0)
	if len(evs) != 4 {
		t.Fatalf("surviving events = %d, want ring capacity 4", len(evs))
	}
	for i, e := range evs {
		if want := uint64(6 + i); e.Seq != want {
			t.Fatalf("event %d seq = %d, want %d (oldest survivors)", i, e.Seq, want)
		}
	}
	if tail := r.Tail(0, 2); len(tail) != 2 || tail[1].Seq != 9 {
		t.Fatalf("Tail(0,2) = %+v, want last two events ending seq 9", tail)
	}
	if got := r.Node(1); len(got) != 0 {
		t.Fatalf("node 1 recorded nothing but Node(1) = %+v", got)
	}
}

// Without rings a recorder still counts every event, by node, kind and
// class, but keeps none: Node, Tail and WriteDump have nothing to show.
func TestRinglessRecorderCounts(t *testing.T) {
	r := New(2)
	r.Record(0, Event{Kind: KindSend, Class: ClassAM})
	r.Record(0, Event{Kind: KindSend, Class: ClassDMA})
	r.Record(1, Event{Kind: KindSend, Class: ClassDMA})
	r.Record(1, Event{Kind: KindCrash})
	r.Record(1, Event{Kind: KindPinReuse, Class: ClassDMA})
	if r.HasRings() {
		t.Fatal("New must not allocate rings")
	}
	for _, c := range []struct {
		got, want int64
		what      string
	}{
		{r.Total(KindSend), 3, "Total(send)"},
		{r.OfClass(KindSend, ClassDMA), 2, "OfClass(send, dma)"},
		{r.OfClass(KindSend, ClassAM), 1, "OfClass(send, am)"},
		{r.OfNode(0, KindSend), 2, "OfNode(0, send)"},
		{r.OfNode(1, KindCrash), 1, "OfNode(1, crash)"},
		{r.Total(KindDrop), 0, "Total(drop)"},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.what, c.got, c.want)
		}
	}
	if r.Node(0) != nil || len(r.Tail(1, 8)) != 0 {
		t.Fatal("a ringless recorder must keep no events")
	}
	tot := r.Totals()
	for k := Kind(0); k < kindCount; k++ {
		if tot[k] != r.Total(k) {
			t.Errorf("Totals()[%s] = %d, Total(%s) = %d", k, tot[k], k, r.Total(k))
		}
	}
	if tot[KindSend] != 3 || tot[KindCrash] != 1 || tot[KindPinReuse] != 1 {
		t.Errorf("Totals() = %v", tot)
	}
	var buf bytes.Buffer
	if err := r.WriteDump(&buf, nil, 8); err != nil || buf.Len() != 0 {
		t.Fatalf("ringless dump: err=%v len=%d, want silent no-op", err, buf.Len())
	}
}

func TestConfigDefaults(t *testing.T) {
	var c *Config
	if c.EffPerNode() != DefaultPerNode || c.EffTail() != DefaultTail {
		t.Fatal("nil config must yield defaults")
	}
	c = &Config{PerNode: 16, Tail: 4}
	if c.EffPerNode() != 16 || c.EffTail() != 4 {
		t.Fatal("explicit sizes must win")
	}
}

func TestWriteJSONLRoundTrip(t *testing.T) {
	r := ringed(3, 8)
	r.Record(0, Event{T: 100, Kind: KindSend, Class: ClassAM, Src: 0, Dst: 2, Seq: 7, Arg: 4096})
	r.Record(2, Event{T: 250, Kind: KindRetryFail, Class: ClassDMA, Src: 2, Dst: 0, Seq: 9, Arg: 9})
	r.Record(1, Event{T: 150, Kind: KindCrash, Src: 1, Dst: -1, Seq: 2, Arg: 500})

	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf, nil, 8); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d JSONL lines, want 3:\n%s", len(lines), buf.String())
	}
	var recs []Record
	for _, ln := range lines {
		var rec Record
		if err := json.Unmarshal([]byte(ln), &rec); err != nil {
			t.Fatalf("line %q is not valid JSON: %v", ln, err)
		}
		recs = append(recs, rec)
	}
	// Interleaved by virtual time across nodes.
	if recs[0].T != 100 || recs[1].T != 150 || recs[2].T != 250 {
		t.Fatalf("events not time-ordered: %+v", recs)
	}
	if recs[0].Kind != "send" || recs[0].Class != "am" || recs[0].Node != 0 || recs[0].Arg != 4096 {
		t.Fatalf("send record mismatch: %+v", recs[0])
	}
	if recs[1].Kind != "crash" || recs[1].Class != "" || recs[1].Dst != -1 {
		t.Fatalf("crash record mismatch: %+v", recs[1])
	}
	if recs[2].Kind != "retry_fail" || recs[2].Class != "dma" || recs[2].Src != 2 || recs[2].Dst != 0 || recs[2].Seq != 9 {
		t.Fatalf("retry_fail record mismatch: %+v", recs[2])
	}
}

func TestWriteJSONLNodeFilter(t *testing.T) {
	r := ringed(4, 8)
	for n := 0; n < 4; n++ {
		r.Record(n, Event{T: sim.Time(n), Kind: KindRecv, Src: int32(n), Dst: int32(n)})
	}
	var buf bytes.Buffer
	// Duplicates and out-of-range entries must be tolerated.
	if err := r.WriteJSONL(&buf, []int{3, 1, 3, 99, -2}, 8); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("node filter {1,3} should yield 2 lines, got %d:\n%s", len(lines), buf.String())
	}
	for _, ln := range lines {
		var rec Record
		if err := json.Unmarshal([]byte(ln), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Node != 1 && rec.Node != 3 {
			t.Fatalf("unexpected node %d in filtered dump", rec.Node)
		}
	}
}

func TestWriteDumpShape(t *testing.T) {
	r := ringed(2, 8)
	r.Record(0, Event{T: 10, Kind: KindSend, Class: ClassDMA, Src: 0, Dst: 1, Seq: 1, Arg: 64})
	r.Record(1, Event{T: 20, Kind: KindStaleNack, Class: ClassDMA, Src: 0, Dst: 1, Seq: 3})
	var buf bytes.Buffer
	if err := r.WriteDump(&buf, nil, 8); err != nil {
		t.Fatal(err)
	}
	var jsonLines, hashLines int
	for _, ln := range strings.Split(buf.String(), "\n") {
		switch {
		case strings.HasPrefix(ln, "{"):
			jsonLines++
			var rec Record
			if err := json.Unmarshal([]byte(ln), &rec); err != nil {
				t.Fatalf("dump line %q not JSON: %v", ln, err)
			}
		case strings.HasPrefix(ln, "#"):
			hashLines++
		case ln != "":
			t.Fatalf("dump line %q is neither JSON nor '#'-prefixed", ln)
		}
	}
	if jsonLines != 2 {
		t.Fatalf("dump has %d JSON lines, want 2", jsonLines)
	}
	// Header plus one line per event.
	if hashLines != 3 {
		t.Fatalf("dump has %d '#' tail lines, want 3", hashLines)
	}
	if !strings.Contains(buf.String(), "stale_nack") {
		t.Fatalf("human tail missing event kind:\n%s", buf.String())
	}
}

func TestKindNamesComplete(t *testing.T) {
	for k := Kind(0); k < kindCount; k++ {
		if k.String() == "unknown" || k.String() == "" {
			t.Fatalf("kind %d has no dump name", k)
		}
	}
}

// BenchmarkRecordCounting measures the ringless recorder: the cost
// every instrumentation site pays in a production run. It must stay at
// one table increment — zero allocations, about a nanosecond.
func BenchmarkRecordCounting(b *testing.B) {
	r := New(4)
	e := Event{T: 1, Kind: KindSend, Class: ClassAM, Src: 0, Dst: 1, Seq: 1, Arg: 64}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Record(i&3, e)
	}
}

// BenchmarkRecordEnabled measures the hot recording path with rings.
// It must not allocate.
func BenchmarkRecordEnabled(b *testing.B) {
	r := ringed(4, DefaultPerNode)
	e := Event{T: 1, Kind: KindSend, Class: ClassAM, Src: 0, Dst: 1, Seq: 1, Arg: 64}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Seq = uint64(i)
		r.Record(i&3, e)
	}
}
