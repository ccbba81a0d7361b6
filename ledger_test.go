package xlupc

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

var updateBehaviour = flag.Bool("update", false, "rewrite testdata/behaviour.sum from this tree")

// behaviourFile is the behaviour ledger: what every shipped invocation
// prints and writes, which is a pure function of its arguments.
const behaviourFile = "testdata/behaviour.sum"

const behaviourHeader = `# What the shipped invocations print and write: a pure function of their
# arguments, seed included. TestBehaviourLedger recomputes every row from
# the runs the coverage census makes (census_test.go's shippedRuns) and
# fails on a row that moved; a change that means to move one rewrites
# this file with
#
#	go test -run TestBehaviourLedger -update .
#
# and names the rows that moved. A row is a command line, then one
# indented line per output: "stdout", or a file the run wrote (profiles
# aside), and the SHA-256 of its bytes; a benchmark row lists instead the
# per-layer columns of its smoke run that depend on the seed alone. A
# row "= command" is a determinism variant of the row above it
# (testdata/invocations.txt): the test asserts that it printed and wrote
# the same bytes, and it records nothing of its own.
`

// ledgerOutput is one output of a behaviour.sum row: its name and value.
type ledgerOutput struct{ name, value string }

// ledgerRow is one row of behaviour.sum.
type ledgerRow struct {
	cmd     string
	variant bool
	outputs []ledgerOutput
	flight  string // the tail of the flight dump the run wrote; not recorded
}

// record is what behaviour.sum holds of a run that printed stdout: the
// exact columns of a benchmark run, or else the hash of its stdout and
// of every file it wrote.
func (r *shippedRun) record(stdout []byte) ([]ledgerOutput, error) {
	if r.args[0] == "benchmark" {
		return exactColumns(stdout)
	}
	outs := []ledgerOutput{{"stdout", sha(stdout)}}
	err := filepath.WalkDir(r.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || strings.HasSuffix(path, ".prof") {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		name, err := filepath.Rel(r.dir, path)
		if err != nil {
			return err
		}
		if len(b) == 0 {
			return fmt.Errorf("%s: wrote an empty %s", r.line(), name)
		}
		outs = append(outs, ledgerOutput{filepath.ToSlash(name), sha(b)})
		return nil
	})
	return outs, err
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// exactColumns reads the detail document a benchmark run prints first
// and returns its per-layer columns that depend on the seed alone.
func exactColumns(stdout []byte) ([]ledgerOutput, error) {
	line, _, _ := strings.Cut(string(stdout), "\n")
	var doc struct {
		PerLayer map[string]float64 `json:"per_layer"`
	}
	if err := json.Unmarshal([]byte(line), &doc); err != nil {
		return nil, fmt.Errorf("benchmark's detail line: %v", err)
	}
	var outs []ledgerOutput
	for name, v := range doc.PerLayer {
		if exactColumn(name) {
			outs = append(outs, ledgerOutput{name, strconv.FormatFloat(v, 'g', -1, 64)})
		}
	}
	if len(outs) == 0 {
		return nil, errors.New("benchmark printed no per-layer column the ledger records")
	}
	sort.Slice(outs, func(i, j int) bool { return outs[i].name < outs[j].name })
	return outs, nil
}

// exactColumn reports whether benchmark's per-layer column name is one
// the ledger records: kernel events, wire traffic and virtual time per
// operation, pins and the address cache's rates, which depend on the
// seed alone. Host time, allocations and CPU shares differ from host to
// host and between GOMAXPROCS settings.
func exactColumn(name string) bool {
	layer, metric, _ := strings.Cut(name, ".")
	switch {
	case layer == "host", strings.HasSuffix(metric, "_allocs"), strings.HasSuffix(metric, "_ns"), metric == "cpu_share":
		return false
	case strings.HasSuffix(metric, "_events"), layer == "addrcache":
		return true
	case layer == "fabric" || layer == "transport":
		return strings.HasSuffix(metric, "_per_op")
	}
	return name == "sim.events_per_op" || name == "core.virt_us_per_op" || name == "mem.pins"
}

// TestBehaviourLedger recomputes testdata/behaviour.sum from the shipped
// runs (shippedResults, shared with TestCoverageCensus: it starts no run
// of its own) and fails on every row whose outputs moved, naming the
// command and the output. A determinism variant that did not print and
// write what the row above it did fails it too, under -update as well.
func TestBehaviourLedger(t *testing.T) {
	runs, _ := shippedResults(t)
	var rows []ledgerRow
	var base *shippedRun
	for _, r := range runs {
		if r.exit != 0 {
			continue
		}
		if !r.variant {
			base = r
		}
		cmd := r.line()
		switch {
		case r.err != nil:
			t.Error(r.err)
			continue
		case r.variant && base.err == nil:
			if diff := outputDiff(base.outputs, r.outputs, true); len(diff) > 0 {
				t.Errorf("%s: a determinism variant of %s, but: %s%s%s", cmd, base.line(), strings.Join(diff, "; "), base.flightNote(), r.flightNote())
			}
		}
		if r.variant {
			rows = append(rows, ledgerRow{cmd: cmd, variant: true})
		} else {
			rows = append(rows, ledgerRow{cmd: cmd, outputs: r.outputs, flight: r.flightNote()})
		}
	}
	if t.Failed() {
		return
	}
	text := formatLedger(rows)
	if *updateBehaviour {
		if err := os.WriteFile(behaviourFile, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s: %d rows", behaviourFile, len(rows))
		return
	}
	raw, err := os.ReadFile(behaviourFile)
	if err != nil {
		t.Fatal(err)
	}
	want, err := parseLedger(string(raw))
	if err != nil {
		t.Fatal(err)
	}
	byCmd := map[string]ledgerRow{}
	for _, w := range want {
		if !w.variant {
			byCmd[w.cmd] = w
		}
	}
	for _, row := range rows {
		if row.variant {
			continue
		}
		w, ok := byCmd[row.cmd]
		delete(byCmd, row.cmd)
		if !ok {
			t.Errorf("%s: a new row: run go test -run TestBehaviourLedger -update . and name it in CHANGES.md", row.cmd)
			continue
		}
		if moved := outputDiff(w.outputs, row.outputs, false); len(moved) > 0 {
			t.Errorf("%s: moved: %s%s", row.cmd, strings.Join(moved, "; "), row.flight)
		}
	}
	for cmd := range byCmd {
		t.Errorf("%s: recorded in %s, but no shipped invocation runs it any more", cmd, behaviourFile)
	}
	if !t.Failed() && text != string(raw) {
		t.Errorf("%s holds the same outputs in another order, header or set of variants than this tree writes: run go test -run TestBehaviourLedger -update .", behaviourFile)
	}
}

// outputDiff names the outputs that differ between want and got: one
// with other bytes or values, one only got holds and, unless got may
// leave some out (a determinism variant of want), one only want holds.
func outputDiff(want, got []ledgerOutput, subset bool) []string {
	of := map[string]string{}
	for _, o := range want {
		of[o.name] = o.value
	}
	var moved []string
	for _, o := range got {
		v, ok := of[o.name]
		delete(of, o.name)
		switch {
		case !ok:
			moved = append(moved, o.name+" is new")
		case v != o.value:
			moved = append(moved, fmt.Sprintf("%s %s → %s", o.name, v, o.value))
		}
	}
	for _, o := range want {
		if _, gone := of[o.name]; gone && !subset {
			moved = append(moved, o.name+" is no longer written")
		}
	}
	return moved
}

// formatLedger renders rows as behaviour.sum holds them.
func formatLedger(rows []ledgerRow) string {
	var b strings.Builder
	b.WriteString(behaviourHeader)
	for _, r := range rows {
		b.WriteString("\n")
		if r.variant {
			b.WriteString("= ")
		}
		b.WriteString(r.cmd)
		for _, o := range r.outputs {
			fmt.Fprintf(&b, "\n\t%s %s", o.name, o.value)
		}
	}
	b.WriteString("\n")
	return b.String()
}

// parseLedger reads behaviour.sum's rows.
func parseLedger(text string) ([]ledgerRow, error) {
	var rows []ledgerRow
	for i, line := range strings.Split(text, "\n") {
		switch {
		case line == "" || strings.HasPrefix(line, "#"):
		case strings.HasPrefix(line, "\t"):
			name, value, ok := strings.Cut(line[1:], " ")
			if !ok || len(rows) == 0 || rows[len(rows)-1].variant {
				return nil, fmt.Errorf("%s:%d: an output line needs a name, a value and a row that records outputs", behaviourFile, i+1)
			}
			r := &rows[len(rows)-1]
			r.outputs = append(r.outputs, ledgerOutput{name, value})
		default:
			cmd, variant := strings.CutPrefix(line, "= ")
			rows = append(rows, ledgerRow{cmd: cmd, variant: variant})
		}
	}
	return rows, nil
}
