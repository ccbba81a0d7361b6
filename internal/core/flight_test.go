package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"xlupc/internal/fault"
	"xlupc/internal/flight"
	"xlupc/internal/sim"
	"xlupc/internal/transport"
)

// parseDump decodes the JSONL half of a flight dump and verifies every
// line is either a JSON object, a '#' comment, or blank.
func parseDump(t *testing.T, dump string) []flight.Record {
	t.Helper()
	var recs []flight.Record
	for _, ln := range strings.Split(dump, "\n") {
		switch {
		case strings.HasPrefix(ln, "{"):
			var r flight.Record
			if err := json.Unmarshal([]byte(ln), &r); err != nil {
				t.Fatalf("dump line %q is not valid JSON: %v", ln, err)
			}
			recs = append(recs, r)
		case ln == "" || strings.HasPrefix(ln, "#"):
		default:
			t.Fatalf("dump line %q is neither JSON, blank, nor '#'-prefixed", ln)
		}
	}
	return recs
}

// The acceptance test of ISSUE 6: a recorder-on chaos run that dies of
// a TransportError must auto-dump a JSONL tail that names the failing
// (src, dst, seq, class) op.
func TestFlightDumpNamesTransportFailure(t *testing.T) {
	var dump bytes.Buffer
	fc := fault.Config{Drop: 1}
	c := chaosCfg(fc, transport.GM())
	c.Rel = &transport.RelConfig{RTO: 20 * sim.Us, MaxRetries: 3}
	c.Flight = &flight.Config{Dump: &dump}
	rt, err := NewRuntime(c)
	if err != nil {
		t.Fatal(err)
	}
	_, err = rt.Run(func(th *Thread) {
		a := th.AllAlloc("A", 64, 8, 8)
		th.Barrier()
		th.GetUint64(a.At(63)) // remote: can never complete
		th.Barrier()
	})
	var te *transport.TransportError
	if !errors.As(err, &te) {
		t.Fatalf("want TransportError, got %v", err)
	}
	if dump.Len() == 0 {
		t.Fatal("failed run produced no flight dump")
	}
	recs := parseDump(t, dump.String())
	if len(recs) == 0 {
		t.Fatal("flight dump contains no JSONL records")
	}
	// Every record belongs to a node the failure involves.
	for _, r := range recs {
		if r.Node != te.Src && r.Node != te.Dst {
			t.Fatalf("dump includes node %d, but the failure involves only %d and %d", r.Node, te.Src, te.Dst)
		}
	}
	// The tail must name the op that exhausted its budget.
	var found *flight.Record
	for i := range recs {
		r := &recs[i]
		if r.Kind == "retry_fail" {
			found = r
			break
		}
	}
	if found == nil {
		t.Fatalf("dump has no retry_fail record:\n%s", dump.String())
	}
	if int(found.Src) != te.Src || int(found.Dst) != te.Dst ||
		found.Seq != te.Seq || found.Class != te.Class {
		t.Fatalf("retry_fail record %+v does not match TransportError %+v", found, te)
	}
	if int64(found.Arg) != int64(te.Attempts) {
		t.Fatalf("retry_fail attempts %d, TransportError says %d", found.Arg, te.Attempts)
	}
	// The human tail must name the kind too.
	if !strings.Contains(dump.String(), "retry_fail") || !strings.Contains(dump.String(), "UNDELIVERABLE") {
		t.Fatalf("human tail does not describe the failure:\n%s", dump.String())
	}
}

// A CrashFail abort must dump the crashed node's tail, including the
// crash epoch event.
func TestFlightDumpNamesCrashFailure(t *testing.T) {
	var dump bytes.Buffer
	c := crashCfg(transport.GM())
	c.Crash.Mode = CrashFail
	c.Flight = &flight.Config{Dump: &dump}
	rt, err := NewRuntime(c)
	if err != nil {
		t.Fatal(err)
	}
	_, err = rt.Run(func(th *Thread) {
		a := th.AllAlloc("A", 256, 8, 32)
		for j := int64(0); j < 256; j++ {
			if a.Owner(j) == th.ID() {
				th.PutUint64(a.At(j), uint64(j))
			}
		}
		th.Barrier()
		for i := 0; i < 200; i++ {
			th.GetUint64(a.At(int64(th.Rand().Intn(256))))
		}
		th.Barrier()
	})
	var ce *CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CrashError, got %v", err)
	}
	recs := parseDump(t, dump.String())
	if len(recs) == 0 {
		t.Fatal("CrashFail run produced no flight records")
	}
	var sawCrash bool
	for _, r := range recs {
		if r.Node != ce.Node {
			t.Fatalf("dump includes node %d, but the failure involves only node %d", r.Node, ce.Node)
		}
		if r.Kind == "crash" {
			sawCrash = true
		}
	}
	if !sawCrash {
		t.Fatalf("crashed node's tail has no crash event:\n%s", dump.String())
	}
}

// Rings must not change a single virtual-time observable: RunStats must
// be bit-identical with and without them — on a chaos-rich workload
// exercising drops, duplicates, crashes and evictions, and on the
// Prometheus matrix's fault, crash and coalescing configurations. And
// the counts are the record: with rings that never wrap, a node's count
// of each kind equals the events of that kind its ring holds, and the
// counts do not depend on whether rings exist.
func TestFlightRecorderIsVirtualTimeInvisible(t *testing.T) {
	type flightCase struct {
		name string
		c    Config
		body func(th *Thread)
	}
	chaos := crashCfg(transport.GM())
	chaos.Fault = &fault.Config{Drop: 0.05, Duplicate: 0.05, Delay: 0.1, DelayMax: 8 * sim.Us}
	cases := []flightCase{{name: "chaos+crash", c: chaos, body: func(th *Thread) {
		a := th.AllAlloc("A", 256, 8, 32)
		for j := int64(0); j < 256; j++ {
			if a.Owner(j) == th.ID() {
				th.PutUint64(a.At(j), uint64(j)*5+3)
			}
		}
		th.Barrier()
		for i := 0; i < 150; i++ {
			th.GetUint64(a.At(int64(th.Rand().Intn(256))))
		}
		th.Barrier()
	}}}
	for _, pc := range promConfigs() {
		switch pc.name {
		case "fault+rel", "crash", "coalesce":
			c := cfg(8, 4, transport.GM(), DefaultCache())
			pc.tune(&c)
			cases = append(cases, flightCase{name: pc.name, c: c, body: promWorkload(pc.atomics)})
		}
	}
	const perNode = 1 << 16 // no run here records this many events on a node
	for _, fc := range cases {
		run := func(rings *flight.Config) (RunStats, *flight.Recorder) {
			c := fc.c
			c.Flight = rings
			rt, err := NewRuntime(c)
			if err != nil {
				t.Fatal(err)
			}
			st, err := rt.Run(fc.body)
			if err != nil {
				t.Fatal(err)
			}
			return st, rt.FlightRecorder()
		}
		offSt, offFR := run(nil)
		onSt, onFR := run(&flight.Config{PerNode: perNode})
		if off, on := fmt.Sprintf("%+v", offSt), fmt.Sprintf("%+v", onSt); off != on {
			t.Fatalf("%s: rings changed the run:\noff %s\non  %s", fc.name, off, on)
		}
		var total int
		for n := 0; n < fc.c.Nodes; n++ {
			evs := onFR.Node(n)
			if len(evs) >= perNode {
				t.Fatalf("%s: node %d's ring filled up; the comparison needs rings that never wrap", fc.name, n)
			}
			total += len(evs)
			inRing := map[flight.Kind]int64{}
			for _, e := range evs {
				inRing[e.Kind]++
			}
			// Kind names end where String says "unknown".
			for k := flight.Kind(0); k.String() != "unknown"; k++ {
				if got := onFR.OfNode(n, k); got != inRing[k] {
					t.Errorf("%s: node %d counts %d %s events, its ring holds %d", fc.name, n, got, k, inRing[k])
				}
				if got, want := offFR.OfNode(n, k), onFR.OfNode(n, k); got != want {
					t.Errorf("%s: node %d counts %d %s events without rings, %d with", fc.name, n, got, k, want)
				}
			}
		}
		if total == 0 {
			t.Fatalf("%s: rings attached but nothing recorded", fc.name)
		}
	}
}

// An on-demand capture (no failure) must dump every node.
func TestFlightOnDemandCapture(t *testing.T) {
	c := chaosCfg(fault.Config{Drop: 0.05, Duplicate: 0.05}, transport.GM())
	c.Flight = &flight.Config{PerNode: 64, Tail: 16}
	rt, err := NewRuntime(c)
	if err != nil {
		t.Fatal(err)
	}
	_, err = rt.Run(func(th *Thread) {
		a := th.AllAlloc("A", 128, 8, 16)
		th.Barrier()
		for i := 0; i < 60; i++ {
			th.GetUint64(a.At(int64(th.Rand().Intn(128))))
		}
		th.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	var dump bytes.Buffer
	if err := rt.WriteFlightDump(&dump, nil); err != nil {
		t.Fatal(err)
	}
	recs := parseDump(t, dump.String())
	nodes := make(map[int]bool)
	for _, r := range recs {
		nodes[r.Node] = true
	}
	if len(nodes) != c.Nodes {
		t.Fatalf("on-demand capture covered %d nodes, want %d", len(nodes), c.Nodes)
	}
}
