package xlupc

import (
	"bytes"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// censusRoots are the run-configuration structs. The census walks every
// exported field of each, and of every ...Config struct of the module
// that one of those fields holds (by value, by pointer or embedded):
// the whole tree of knobs a run can turn.
var censusRoots = []struct{ pkg, name string }{
	{"xlupc/internal/core", "Config"},
	{"xlupc/internal/kv", "Options"},
	{"xlupc/internal/kv", "Workload"},
	{"xlupc/internal/dis", "Params"},
	{"xlupc/internal/transport", "Profile"},
	{"xlupc/internal/bench", "MicroOpts"},
	{"xlupc/internal/bench", "GUPSOpts"},
	{"xlupc/internal/bench", "KVOpts"},
	{"xlupc/internal/bench", "PressureOpts"},
	{"xlupc/internal/bench", "Sweep"},
}

// censusExceptions are the knobs that no non-test code sets, that no
// non-test code reads, or to which non-test code gives one value only,
// but that stay, each with the reason. An entry whose field is set,
// read and given two values after all, or no longer exists, fails the
// census too: the table holds exactly the survivors.
var censusExceptions = map[string]string{
	"kv.Options.WriteWindow":      "the test hook that widens the seqlock window to provoke torn reads deterministically",
	"core.PinConfig.MaxPerObject": "pinned by the pin-refused row of core's roundtrip_golden.json",
	"core.CrashConfig.Mode":       "selects the typed CrashError path: error handling, not a tuning knob",
	"core.Config.Exec":            "assigned by the frozen benchmark/api.go, which must keep compiling; the runtime has one engine and reads it nowhere",
}

// valueExceptions are the knobs to which non-test code gives one value
// only, but that stay because a test turns them to another, each with
// that test (in the struct's own package, pkg.TestName for one in
// internal/pkg, or xlupc.TestName for one of the root package). An entry
// whose knob takes two values after all, or no longer exists, fails the
// census, and so does one whose test is gone or no longer names the
// field.
var valueExceptions = map[string]string{
	"transport.RelConfig.RTO":        "TestAckDuringRetransmitDoesNotOrphanTimer",
	"transport.RelConfig.MaxRetries": "TestRetryBudgetExhaustionFailsFast",
	"fault.CrashConfig.Every":        "core.TestStaleNackWithoutCache",
	"fault.CrashConfig.Horizon":      "core.TestStaleNackWithoutCache",
	"fault.CrashConfig.MaxPerNode":   "TestCrashScheduleMaxPerNode",
	"kv.Options.Name":                "TestTornReadRetry",
}

// TestConfigCensus fails on any knob that no non-test .go file in the
// tree (benchmark/ included) ever sets — by a composite literal, an
// assignment, an increment or by taking its address — or ever reads, or
// to which all of them together give one value: each composite literal,
// assignment and increment gives a knob its right-hand side, a literal
// that leaves the knob out its zero value, and anything but a constant
// (or taking the knob's address) a value that varies. A knob nothing but
// the tests can turn selects code no run reaches, a knob nothing reads
// selects nothing, and a knob every run holds at one value is a constant:
// it goes, together with that code, or it earns an entry in
// censusExceptions or valueExceptions.
func TestConfigCensus(t *testing.T) {
	l := newCensusLoader(t)
	unset, unread, single := map[string]bool{}, map[string]bool{}, map[string]bool{}
	fields := map[string]*types.Var{}
	seen := map[*types.Named]bool{}
	var walk func(n *types.Named)
	walk = func(n *types.Named) {
		if seen[n] {
			return
		}
		seen[n] = true
		st := n.Underlying().(*types.Struct)
		name := n.Obj().Pkg().Name() + "." + n.Obj().Name()
		t.Logf("%s: %d fields", name, st.NumFields())
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if !f.Exported() {
				continue
			}
			knob := name + "." + f.Name()
			fields[knob] = f
			unset[knob] = !l.set[f]
			unread[knob] = !l.read[f]
			single[knob] = !l.varying[f] && len(l.values[f]) < 2
			if c := configStruct(f.Type()); c != nil {
				walk(c)
			}
		}
	}
	for _, r := range censusRoots {
		pkg := l.pkgs[r.pkg]
		if pkg == nil {
			t.Fatalf("package %s not loaded", r.pkg)
		}
		obj, ok := pkg.types.Scope().Lookup(r.name).(*types.TypeName)
		if !ok {
			t.Fatalf("%s.%s is not a type", r.pkg, r.name)
		}
		walk(obj.Type().(*types.Named))
	}
	t.Logf("%d knobs", len(unset))
	var names []string
	for name := range unset {
		names = append(names, name)
	}
	for name := range censusExceptions {
		if _, ok := unset[name]; !ok {
			names = append(names, name)
		}
	}
	for name := range valueExceptions {
		if _, ok := unset[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		_, excepted := censusExceptions[name]
		test, valueExcepted := valueExceptions[name]
		flagged := unset[name] || unread[name] || single[name]
		switch {
		case excepted && !flagged:
			t.Errorf("censusExceptions lists %s, which non-test code sets, reads and gives two values, or which no longer exists", name)
		case excepted:
		case valueExcepted && (unset[name] || unread[name] || !single[name]):
			t.Errorf("valueExceptions lists %s, which non-test code gives two values, which it leaves unset or unread, or which no longer exists", name)
		case valueExcepted:
			f := fields[name]
			if err := l.testReads(l.pkgs[f.Pkg().Path()], test, f.Name()); err != nil {
				t.Errorf("valueExceptions: %s: %v", name, err)
			}
		case unset[name]:
			t.Errorf("%s is set by no non-test code: delete it and what it selects, or give it a setter", name)
		case unread[name]:
			t.Errorf("%s is read by no non-test code: delete it, or give it a reader", name)
		case single[name]:
			t.Errorf("%s is given one value by all non-test code (%s): make it a named constant, or list it in valueExceptions with the test that sets another", name, l.valueList(fields[name]))
		}
	}
}

// configStruct is the module's ...Config struct type that t is or points
// to, or nil.
func configStruct(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil || !strings.HasPrefix(n.Obj().Pkg().Path(), "xlupc/") ||
		!strings.HasSuffix(n.Obj().Name(), "Config") {
		return nil
	}
	if _, ok := n.Underlying().(*types.Struct); !ok {
		return nil
	}
	return n
}

// codeCensusExceptions are the functions, methods and types under
// internal/ that no binary reaches but that stay, each with the test
// that reads it (in the declaration's own package, or as pkg.TestName
// in another): the places where tests observe state the runtime keeps
// for itself. An entry whose declaration a binary reaches after all, is
// a getter, or no longer exists fails the census too, and so does one
// whose test is gone or no longer names it.
var codeCensusExceptions = map[string]string{
	"flight.Record":                "TestWriteJSONLRoundTrip",
	"mem.PinTable.IsPinned":        "TestPinLimitedEvictsLRU",
	"mem.Space.CheckInvariants":    "TestPropertyAllocatorIntegrity",
	"mem.Space.Live":               "TestSpaceAccounting",
	"mem.Space.SizeOf":             "TestAllocAlignmentAndRounding",
	"sim.Completion.CompleteAfter": "TestCompleteAfter",
	"sim.NewQueue":                 "TestQueuePushPop",
	"svd.HandleFromKey":            "TestHandleKeyRoundTrip",
	"telemetry.Telemetry.Snapshot": "TestPrometheusNoDuplicateFamilies",
	"trace.Trace.ThreadTotal":      "TestTotalsAndThreadTotal",
}

// TestCodeCensus fails on any function, method or type under internal/
// that no program of the tree reaches: test-only API, which the tests
// keep compiling and so keep alive. The roots are every package's main
// and init and every package-level var initializer — the eight CLIs,
// the examples and benchmark/ included. A declaration reaches what its
// signature, body or initializer names; a method is reached when it is
// named, or when its receiver type is reached and it is an Error or
// String method or reached code calls a method of that name through an
// interface the type implements. A getter (no parameters, a body of one
// return) is allowed; anything else a binary does not reach goes, or it
// earns an entry in codeCensusExceptions naming the test that reads it.
func TestCodeCensus(t *testing.T) {
	l := newCensusLoader(t)
	g := newCodeGraph(l)
	g.reach()
	dead, lines := 0, 0
	found := map[string]bool{}
	for _, d := range g.decls {
		if d.obj == nil || g.reached[d.obj] || !d.reported(l.root) || d.getter() {
			continue
		}
		found[d.name] = true
		if test, ok := codeCensusExceptions[d.name]; ok {
			if err := l.testReads(d.pkg, test, d.obj.Name()); err != nil {
				t.Errorf("codeCensusExceptions: %s: %v", d.name, err)
			}
			continue
		}
		dead++
		lines += l.fset.Position(d.node.End()).Line - l.fset.Position(d.node.Pos()).Line + 1
		t.Errorf("%s (%s) is reached by no program, only by tests: delete it, or list it in codeCensusExceptions with the test that reads it",
			d.name, l.fset.Position(d.node.Pos()))
	}
	for name := range codeCensusExceptions {
		if !found[name] {
			t.Errorf("codeCensusExceptions lists %s, which a program reaches, is a getter, or no longer exists", name)
		}
	}
	t.Logf("%d declarations, %d reached; %d unreached (%d lines), %d excepted",
		len(g.decls), len(g.reached), dead, lines, len(codeCensusExceptions))
}

// codeDecl is one top-level declaration: the object it declares (nil for
// a package-level var, which is a root) and the objects its signature,
// body or initializer names.
type codeDecl struct {
	pkg  *censusPkg
	node ast.Node // *ast.FuncDecl, *ast.TypeSpec or *ast.ValueSpec
	obj  types.Object
	name string // pkg.Name or pkg.Recv.Name
	uses []types.Object
}

// reported reports whether d is a function, method or type under
// internal/, the declarations the census answers for.
func (d *codeDecl) reported(root string) bool {
	if _, ok := d.node.(*ast.ValueSpec); ok {
		return false
	}
	rel, err := filepath.Rel(root, d.pkg.dir)
	return err == nil && strings.HasPrefix(filepath.ToSlash(rel)+"/", "internal/")
}

// getter reports whether d is a function of no parameters whose body is
// one return statement.
func (d *codeDecl) getter() bool {
	fd, ok := d.node.(*ast.FuncDecl)
	if !ok || fd.Body == nil || fd.Type.Params.NumFields() != 0 || len(fd.Body.List) != 1 {
		return false
	}
	_, ok = fd.Body.List[0].(*ast.ReturnStmt)
	return ok
}

// codeGraph is the tree's declarations and what reaches what.
type codeGraph struct {
	decls   []*codeDecl
	byObj   map[types.Object]*codeDecl
	reached map[types.Object]bool
	queue   []*codeDecl
	// viaIface holds, per method name, the interfaces through which
	// reached code calls a method of that name.
	viaIface map[string][]*types.Interface
}

// canonical maps an instantiated generic function, method or field to
// its declaration.
func canonical(o types.Object) types.Object {
	switch o := o.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return o
}

func newCodeGraph(l *censusLoader) *codeGraph {
	g := &codeGraph{
		byObj:    map[types.Object]*codeDecl{},
		reached:  map[types.Object]bool{},
		viaIface: map[string][]*types.Interface{},
	}
	for _, path := range l.paths() {
		p := l.pkgs[path]
		for _, f := range p.files {
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					g.add(p, decl, decl.Name)
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							g.add(p, spec, spec.Name)
						case *ast.ValueSpec:
							if decl.Tok == token.VAR {
								g.add(p, spec, nil)
								continue
							}
							for _, name := range spec.Names {
								g.add(p, spec, name)
							}
						}
					}
				}
			}
		}
	}
	return g
}

// add records the declaration node of the object id defines (a root
// when id is nil).
func (g *codeGraph) add(p *censusPkg, node ast.Node, id *ast.Ident) {
	d := &codeDecl{pkg: p, node: node}
	ast.Inspect(node, func(n ast.Node) bool {
		ident, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if o := p.info.Uses[ident]; o != nil {
			d.uses = append(d.uses, canonical(o))
		}
		// An embedded field names its type.
		if v, ok := p.info.Defs[ident].(*types.Var); ok && v.Embedded() {
			if n := namedOf(v.Type()); n != nil {
				d.uses = append(d.uses, n.Obj())
			}
		}
		return true
	})
	g.decls = append(g.decls, d)
	if id == nil {
		g.queue = append(g.queue, d)
		return
	}
	d.obj = p.info.Defs[id]
	d.name = p.types.Name() + "." + id.Name
	if fd, ok := node.(*ast.FuncDecl); ok {
		if fd.Recv != nil {
			recv := d.obj.Type().(*types.Signature).Recv()
			d.name = p.types.Name() + "." + namedOf(recv.Type()).Obj().Name() + "." + id.Name
		} else if id.Name == "init" || (id.Name == "main" && p.types.Name() == "main") {
			g.queue = append(g.queue, d)
			g.reached[d.obj] = true
		}
	}
	g.byObj[d.obj] = d
}

// namedOf is the named type t is or points to, or nil.
func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

func (g *codeGraph) mark(o types.Object) {
	if g.reached[o] {
		return
	}
	if d := g.byObj[o]; d != nil {
		g.reached[o] = true
		g.queue = append(g.queue, d)
	}
}

// reach marks everything the roots reach.
func (g *codeGraph) reach() {
	for {
		for len(g.queue) > 0 {
			d := g.queue[len(g.queue)-1]
			g.queue = g.queue[:len(g.queue)-1]
			for _, o := range d.uses {
				g.mark(o)
				g.noteInterfaceCalls(o)
			}
		}
		// A reached type's methods that its callers cannot name.
		for _, d := range g.decls {
			tn, ok := d.obj.(*types.TypeName)
			if !ok || !g.reached[tn] || types.IsInterface(tn.Type()) {
				continue
			}
			ptr := types.NewPointer(tn.Type())
			ms := types.NewMethodSet(ptr)
			for i := 0; i < ms.Len(); i++ {
				m := ms.At(i).Obj()
				if g.reached[canonical(m)] {
					continue
				}
				if m.Name() == "Error" || m.Name() == "String" {
					g.mark(canonical(m))
					continue
				}
				for _, iface := range g.viaIface[m.Name()] {
					if types.Implements(tn.Type(), iface) || types.Implements(ptr, iface) {
						g.mark(canonical(m))
						break
					}
				}
			}
		}
		if len(g.queue) == 0 {
			return
		}
	}
}

// noteInterfaceCalls records the interface methods reached code calls:
// those it names, and those of the interface parameters of the
// functions outside the tree it calls, which call them for it.
func (g *codeGraph) noteInterfaceCalls(o types.Object) {
	fn, ok := o.(*types.Func)
	if !ok {
		return
	}
	sig := fn.Type().(*types.Signature)
	if r := sig.Recv(); r != nil && types.IsInterface(r.Type()) {
		g.viaIface[fn.Name()] = append(g.viaIface[fn.Name()], r.Type().Underlying().(*types.Interface))
		return
	}
	if fn.Pkg() == nil || fn.Pkg().Path() == "xlupc" || strings.HasPrefix(fn.Pkg().Path(), "xlupc/") {
		return
	}
	for i := 0; i < sig.Params().Len(); i++ {
		pt := sig.Params().At(i).Type()
		if s, ok := pt.(*types.Slice); ok && sig.Variadic() && i == sig.Params().Len()-1 {
			pt = s.Elem()
		}
		iface, ok := pt.Underlying().(*types.Interface)
		if !ok {
			continue
		}
		for j := 0; j < iface.NumMethods(); j++ {
			name := iface.Method(j).Name()
			g.viaIface[name] = append(g.viaIface[name], iface)
		}
	}
}

// testReads reports why test — a test of p's directory, pkg.TestName
// for one in internal/pkg, or xlupc.TestName for one of the root
// package — is not a test that names ident, or nil.
func (l *censusLoader) testReads(p *censusPkg, test, ident string) error {
	dir := p.dir
	if pkg, name, ok := strings.Cut(test, "."); ok {
		dir, test = filepath.Join(l.root, "internal", pkg), name
		if pkg == "xlupc" {
			dir = l.root
		}
	}
	tests, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		return err
	}
	for _, path := range tests {
		f, err := parser.ParseFile(l.fset, path, nil, 0)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || fd.Name.Name != test {
				continue
			}
			names := false
			ast.Inspect(fd, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && id.Name == ident {
					names = true
				}
				return !names
			})
			if !names {
				return errors.New(test + " does not name " + ident)
			}
			return nil
		}
	}
	return errors.New("no test " + test + " in " + dir)
}

// coverageCeiling is the number of statements under internal/ that no
// shipped invocation executes. It only goes down: the change that lowers
// the count lowers it too.
const coverageCeiling = 670

// coverageExceptions are the functions under internal/ of more than one
// statement that no shipped invocation runs but that stay, each with the
// reason. Functions named in codeCensusExceptions count as named here
// too. An entry whose function some invocation runs after all, or that
// no longer exists, fails the census.
var coverageExceptions = map[string]string{
	"bench.Sweep.ScaleMark":      "the big-scale sweep: xlupc-report -scale takes minutes, so CI runs it through TestBenchSmoke32k (the 32k point) and BenchmarkBigScaleCont (8k threads)",
	"bench.Sweep.PrintScale":     "prints the big-scale sweep of xlupc-report -scale (see bench.Sweep.ScaleMark)",
	"bench.bigChase":             "the big-scale sweep's body (see bench.Sweep.ScaleMark)",
	"bench.Sweep.bigBodyC":       "the big-scale sweep's body (see bench.Sweep.ScaleMark)",
	"bench.divergenceDump":       "dumps the flight records when a sweep's checksums diverge, which is a bug",
	"sim.Kernel.deadlock":        "runs when the event queue drains with threads still blocked, which is a bug",
	"sim.DeadlockError.Error":    "the message of a deadlock (see sim.Kernel.deadlock)",
	"pool.Free.retire":           "the xlupcpoison build's retire check, a build no shipped binary uses",
	"core.Thread.bulkNext":       "the second and later runs of a bulk transfer that crosses an affinity boundary, which no shipped workload issues",
	"transport.coalescer.flushC": "the coalescer's timer flush: coalFlushDelay (3 µs) never expires before a SyncAll flushes the buffer in a shipped run, but the timer it arms stays, because deleting the arming moves all four coalesced_nbget rows of core's dispatch_golden.json (gm/cache=true: 427,570,800 → 432,804,000 ps, 3,617 → 3,634 events)",
	"addrcache.Cache.Contains":   "skips the address pairs a coalesced frame already piggybacked, which only a frame answering GETs of several objects of one node carries; no shipped run sends one, but the pairs stay, because deleting them moves nbget_x8_coalesced/{gm,lapi}/cache=true of core's roundtrip_golden.json (NetBytes 4,464 → 4,288)",
	"mem.costEvictor.Reset":      "clears a crashed node's pin table under the cost evictor; the crash sweeps run the default LRU evictor",
	"svd.Handle.String":          "names the object in core's panics on a broken invariant",
	"core.ReduceOp.String":       "names the reduction in test output; no shipped output prints one",
	"mem.EvictorKind.String":     "names the evictor in test output; no shipped output prints one",
	"mem.PinPolicy.String":       "names the pin policy in test output; no shipped output prints one",
}

// TestCoverageCensus runs nothing of its own: it folds the coverage
// counters of the shipped invocations (shippedResults), and fails when
// the statements under internal/ that none of them executes outnumber
// coverageCeiling, or when a function of more than one statement under
// internal/ runs under none of them and no exception table names it.
func TestCoverageCensus(t *testing.T) {
	runs, blocks := shippedResults(t)
	for _, r := range runs {
		if r.err != nil {
			t.Error(r.err)
		}
	}
	if t.Failed() {
		return
	}
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}

	total, never := 0, 0
	pkgs := map[string][2]int{} // never executed, statements
	for _, b := range blocks {
		pkg := b.file[:strings.LastIndex(b.file, "/")]
		n := pkgs[pkg]
		total, n[1] = total+b.stmts, n[1]+b.stmts
		if !b.hit {
			never, n[0] = never+b.stmts, n[0]+b.stmts
		}
		pkgs[pkg] = n
	}
	var names []string
	for pkg := range pkgs {
		names = append(names, pkg)
	}
	sort.Strings(names)
	for _, pkg := range names {
		t.Logf("%s: %d of %d statements never executed", pkg, pkgs[pkg][0], pkgs[pkg][1])
	}
	t.Logf("%d invocations; %d of %d statements under internal/ never executed (ceiling %d)", len(runs), never, total, coverageCeiling)
	switch {
	case never > coverageCeiling:
		t.Errorf("%d statements under internal/ are executed by no shipped invocation, over the ceiling of %d: run them from an invocation, or delete them", never, coverageCeiling)
	case never < coverageCeiling:
		t.Logf("lower coverageCeiling to %d", never)
	}

	l := newCensusLoader(t)
	found := map[string]bool{}
	for _, d := range newCodeGraph(l).decls {
		fd, ok := d.node.(*ast.FuncDecl)
		if !ok || fd.Body == nil || !d.reported(root) {
			continue
		}
		pos, end := l.fset.Position(fd.Pos()), l.fset.Position(fd.End())
		rel, err := filepath.Rel(root, pos.Filename)
		if err != nil {
			t.Fatal(err)
		}
		stmts, run := 0, false
		for _, b := range blocks {
			if b.file == "xlupc/"+filepath.ToSlash(rel) && b.within(pos, end) {
				stmts += b.stmts
				run = run || b.hit
			}
		}
		if run || stmts <= 1 {
			continue
		}
		found[d.name] = true
		if _, ok := coverageExceptions[d.name]; ok {
			continue
		}
		if _, ok := codeCensusExceptions[d.name]; ok {
			continue
		}
		t.Errorf("%s (%s, %d statements) runs under no shipped invocation: run it from one, delete it, or list it in coverageExceptions with the reason", d.name, pos, stmts)
	}
	for name := range coverageExceptions {
		if !found[name] {
			t.Errorf("coverageExceptions lists %s, which a shipped invocation runs, has one statement, or no longer exists", name)
		}
	}
}

// flagExceptions are the flags of the CLIs that no line of the
// invocation list passes, each with the reason: "xlupc-x -flag" for one
// binary's, "-flag" for a flag every binary registers. An entry that a
// line passes after all, or whose flag no binary registers, fails the
// census.
var flagExceptions = map[string]string{
	"xlupc-report -full":       "runs the report at the paper's largest scales: 22.4-24.1 s at -parallel 1 on a 2-CPU host, so 64 seeds of it would take about 25 minutes, too slow for the seed sweep",
	"xlupc-report -scale":      "appends the big-scale sweep, which takes minutes; CI's bench smoke runs its 32k point through TestBenchSmoke32k, which logs the row",
	"xlupc-report -flight":     "a report takes seconds, too long for the seed sweep; xlupc-chaos -flight runs the same bench.ParseFlightFlags path there",
	"xlupc-report -memprofile": "written after the whole report; the seed sweep runs the memory profile of prof.Register through every other binary",
}

// TestFlagCensus fails on a flag of a CLI, as its -h output lists them,
// that no line of the invocation list passes to that CLI — the seed
// sweep (whose lines CI also passes -seed), the rejected flags and the
// determinism invocations — unless flagExceptions names it. It also
// fails when a CLI depends on networking (linkedNetwork): no flag
// serves anything, and a listener's imports would more than double the
// size of every binary and the time to rebuild it.
func TestFlagCensus(t *testing.T) {
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	chains, err := linkedNetwork(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range chains {
		t.Errorf("a CLI links networking: %s", c)
	}
	bin := t.TempDir()
	if err := goCmd(root, "build", "-o", bin+string(filepath.Separator), "./cmd/..."); err != nil {
		t.Fatal(err)
	}

	passed := map[string]bool{}
	pass := func(args []string) {
		for _, a := range args[1:] {
			if name, ok := strings.CutPrefix(a, "-"); ok {
				name, _, _ = strings.Cut(name, "=")
				passed[args[0]+" -"+name] = true
			}
		}
	}
	for _, path := range []string{"testdata/sweep.txt", "testdata/rejected.txt", "testdata/invocations.txt"} {
		list, err := invocationList(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, inv := range list {
			if path == "testdata/sweep.txt" {
				inv.args = append(inv.args, "-seed")
			}
			pass(inv.args)
		}
	}

	mains, err := filepath.Glob(filepath.Join(root, "cmd", "*", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	registered := map[string]bool{}
	for _, m := range mains {
		tool := filepath.Base(filepath.Dir(m))
		out, _ := exec.Command(filepath.Join(bin, tool), "-h").CombinedOutput()
		n := 0
		for _, line := range strings.Split(string(out), "\n") {
			name, ok := strings.CutPrefix(line, "  -")
			if !ok {
				continue
			}
			name, _, _ = strings.Cut(name, " ")
			flag := tool + " -" + name
			registered[flag], registered["-"+name] = true, true
			n++
			_, excepted := flagExceptions[flag]
			if _, all := flagExceptions["-"+name]; !passed[flag] && !excepted && !all {
				t.Errorf("%s is passed by no line of the invocation list: give it one in testdata/sweep.txt, rejected.txt or invocations.txt, delete it, or list it in flagExceptions with the reason", flag)
			}
		}
		if n == 0 {
			t.Errorf("%s -h lists no flags:\n%s", tool, out)
		}
	}
	for flag := range flagExceptions {
		if !registered[flag] || passed[flag] {
			t.Errorf("flagExceptions lists %s, which a line passes or no binary registers", flag)
		}
	}
}

// linkedNetwork returns the shortest import chain ("xlupc/cmd/x →
// xlupc/internal/y → net") from a command under cmd/ to each package of
// net, net/… or crypto/tls it depends on, stopping at the first such
// package on each branch.
func linkedNetwork(root string) ([]string, error) {
	cmd := exec.Command("go", "list", "-deps", "-f", "{{.ImportPath}} {{.DepOnly}}{{range .Imports}} {{.}}{{end}}", "./cmd/...")
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "GOWORK=off")
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list -deps ./cmd/...: %v", err)
	}
	imports := map[string][]string{}
	var queue []string
	from := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Fields(line)
		imports[f[0]] = f[2:]
		if f[1] == "false" { // a command itself
			queue = append(queue, f[0])
			from[f[0]] = ""
		}
	}
	var chains []string
	for len(queue) > 0 {
		pkg := queue[0]
		queue = queue[1:]
		if pkg == "net" || strings.HasPrefix(pkg, "net/") || pkg == "crypto/tls" {
			chain := []string{pkg}
			for p := from[pkg]; p != ""; p = from[p] {
				chain = append([]string{p}, chain...)
			}
			chains = append(chains, strings.Join(chain, " → "))
			continue // what it imports in turn is the same fault
		}
		for _, imp := range imports[pkg] {
			if _, seen := from[imp]; !seen {
				from[imp] = pkg
				queue = append(queue, imp)
			}
		}
	}
	sort.Strings(chains)
	return chains, nil
}

// goCmd runs the go command in dir.
func goCmd(dir string, args ...string) error {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOWORK=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return nil
}

// shipped is the one build and run of the shipped invocations that
// TestCoverageCensus and TestBehaviourLedger share: coverage counters do
// not change what a binary prints or writes, so one set of runs serves
// both.
var shipped struct {
	once   sync.Once
	runs   []*shippedRun
	blocks []*coverBlock
	err    error
}

// shippedResults returns the shipped invocations (shippedRuns), each run
// once with what it printed and wrote, and the coverage blocks under
// internal/ folded over all of them. The first test to ask builds every
// binary of the tree with coverage counters and runs them concurrently
// under one GOCOVERDIR; -short skips every test that asks.
func shippedResults(t *testing.T) ([]*shippedRun, []*coverBlock) {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs every binary with coverage counters")
	}
	shipped.once.Do(func() { shipped.runs, shipped.blocks, shipped.err = runShipped() })
	if shipped.err != nil {
		t.Fatal(shipped.err)
	}
	return shipped.runs, shipped.blocks
}

func runShipped() ([]*shippedRun, []*coverBlock, error) {
	root, err := filepath.Abs(".")
	if err != nil {
		return nil, nil, err
	}
	tmp, err := os.MkdirTemp("", "xlupc-shipped-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(tmp)
	bin, cov := filepath.Join(tmp, "bin"), filepath.Join(tmp, "cov")
	if err := os.MkdirAll(cov, 0o755); err != nil {
		return nil, nil, err
	}
	if err := goCmd(root, "build", "-cover", "-coverpkg=./...", "-o", bin+string(filepath.Separator), "./cmd/...", "./examples/..."); err != nil {
		return nil, nil, err
	}
	if err := goCmd(filepath.Join(root, "benchmark"), "build", "-cover", "-coverpkg=xlupc/...,.", "-o", filepath.Join(bin, "benchmark"), "."); err != nil {
		return nil, nil, err
	}

	runs, err := shippedRuns(root)
	if err != nil {
		return nil, nil, err
	}
	var wg sync.WaitGroup
	next := make(chan *shippedRun)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range next {
				r.run(bin, cov)
			}
		}()
	}
	for i, r := range runs {
		if r.dir == "" {
			r.dir = filepath.Join(tmp, "run"+strconv.Itoa(i))
		}
		next <- r
	}
	close(next)
	wg.Wait()

	prof := filepath.Join(tmp, "cover.txt")
	if err := goCmd(root, "tool", "covdata", "textfmt", "-i="+cov, "-o="+prof); err != nil {
		return nil, nil, err
	}
	blocks, err := readCoverBlocks(prof, "xlupc/internal/")
	return runs, blocks, err
}

// shippedRun is one invocation of a built binary: its extra
// environment, its arguments, the directory it runs in ("" = a fresh
// one), and the exit status it must end with. A run that must exit 0
// must not print the `!!` marker either. Running it fills in its error,
// or else what behaviour.sum records of a run that must exit 0.
type shippedRun struct {
	env     []string
	args    []string
	dir     string
	exit    int
	variant bool // it must print and write what the row before it did

	err     error
	outputs []ledgerOutput
	flight  string // the last lines of the flight dump it wrote, if any
}

// line is r as its invocation list writes it.
func (r *shippedRun) line() string {
	return strings.Join(append(r.env[:len(r.env):len(r.env)], r.args...), " ")
}

// flightTailLines is how much of a run's flight dump a failure shows.
const flightTailLines = 20

// run executes r with coverage counters going to cov.
func (r *shippedRun) run(bin, cov string) {
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		r.err = err
		return
	}
	cmd := exec.Command(filepath.Join(bin, r.args[0]), r.args[1:]...)
	cmd.Dir = r.dir
	cmd.Env = append(append(os.Environ(), "GOCOVERDIR="+cov), r.env...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	exit := 0
	if ee := (*exec.ExitError)(nil); errors.As(err, &ee) {
		exit = ee.ExitCode()
	} else if err != nil {
		r.err = err
		return
	}
	if dump := flagValue(r.args, "-flight-dump"); dump != "" {
		if b, err := os.ReadFile(filepath.Join(r.dir, dump)); err == nil {
			r.flight = lastLines(b, flightTailLines)
		}
	}
	marked := bytes.Contains(stdout.Bytes(), []byte("!!")) || bytes.Contains(stderr.Bytes(), []byte("!!"))
	if exit != r.exit || (r.exit == 0 && marked) {
		out := bytes.Join([][]byte{stdout.Bytes(), stderr.Bytes()}, nil)
		if len(out) > 2000 {
			out = out[len(out)-2000:]
		}
		r.err = fmt.Errorf("%s: exit %d, want %d\n%s%s", r.line(), exit, r.exit, out, r.flightNote())
		return
	}
	if r.exit == 0 {
		r.outputs, r.err = r.record(stdout.Bytes())
	}
}

// flightNote is the tail of r's flight dump, for a failure message.
func (r *shippedRun) flightNote() string {
	if r.flight == "" {
		return ""
	}
	return fmt.Sprintf("\nlast %d lines of its flight dump:\n%s", flightTailLines, r.flight)
}

// flagValue is the argument that follows flag in args, or "".
func flagValue(args []string, flag string) string {
	for i, a := range args[:len(args)-1] {
		if a == flag {
			return args[i+1]
		}
	}
	return ""
}

// lastLines is the last n lines of b.
func lastLines(b []byte, n int) string {
	lines := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}

// shippedRuns is the shipped invocation list: benchmark/'s four
// workloads at smoke size with profile attribution, run from the root of
// the checkout as benchmark/run.sh runs them; the determinism
// invocations (testdata/invocations.txt); the seed sweep at seeds 1 to 3
// and the rejected flags (testdata/sweep.txt, rejected.txt, which CI
// runs too); and the examples. behaviour.sum records every run but the
// rejected ones, in this order.
func shippedRuns(root string) ([]*shippedRun, error) {
	var runs []*shippedRun
	for _, w := range []string{"report", "kv_mixed", "chase_am", "chase_cached"} {
		runs = append(runs, &shippedRun{args: []string{"benchmark", "-smoke", "-trace", "1", "-workload", w}, dir: root})
	}
	invocations, err := invocationList("testdata/invocations.txt")
	if err != nil {
		return nil, err
	}
	for _, inv := range invocations {
		runs = append(runs, &shippedRun{env: inv.env, args: inv.args, variant: inv.variant})
	}
	sweep, err := invocationList("testdata/sweep.txt")
	if err != nil {
		return nil, err
	}
	for _, inv := range sweep {
		for seed := 1; seed <= 3; seed++ {
			runs = append(runs, &shippedRun{env: inv.env, args: append(inv.args[:len(inv.args):len(inv.args)], "-seed", strconv.Itoa(seed))})
		}
	}
	rejected, err := invocationList("testdata/rejected.txt")
	if err != nil {
		return nil, err
	}
	for _, inv := range rejected {
		runs = append(runs, &shippedRun{env: inv.env, args: inv.args, exit: 2})
	}
	examples, err := filepath.Glob(filepath.Join(root, "examples", "*", "main.go"))
	if err != nil {
		return nil, err
	}
	for _, ex := range examples {
		runs = append(runs, &shippedRun{args: []string{filepath.Base(filepath.Dir(ex))}})
	}
	return runs, nil
}

// invocation is one line of a checked-in invocation list.
type invocation struct {
	env     []string // leading NAME=value tokens: the run's extra environment
	args    []string // a binary name and its arguments
	variant bool     // the line starts with "=": a determinism variant of the line above
}

// invocationList reads a checked-in invocation list: one command a line,
// a binary name and its arguments after any NAME=value environment
// tokens, with blank lines and # comments. Only testdata/invocations.txt
// holds variants.
func invocationList(path string) ([]invocation, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var list []invocation
	for i, line := range strings.Split(string(raw), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		var inv invocation
		if f[0] == "=" {
			inv.variant, f = true, f[1:]
		}
		for len(f) > 0 && strings.Contains(f[0], "=") {
			inv.env, f = append(inv.env, f[0]), f[1:]
		}
		inv.args = f
		if len(f) == 0 || inv.variant && (len(list) == 0 || path != "testdata/invocations.txt") {
			return nil, fmt.Errorf("%s:%d: a line needs a command, and a variant a line above it in testdata/invocations.txt", path, i+1)
		}
		list = append(list, inv)
	}
	return list, nil
}

// coverBlock is one basic block of a coverage profile, merged over every
// binary and run that counted it.
type coverBlock struct {
	file                   string // import path of the package + file name
	line0, col0, line, col int
	stmts                  int
	hit                    bool
}

// within reports whether the block starts inside [pos, end).
func (b *coverBlock) within(pos, end token.Position) bool {
	after := b.line0 > pos.Line || (b.line0 == pos.Line && b.col0 >= pos.Column)
	before := b.line0 < end.Line || (b.line0 == end.Line && b.col0 < end.Column)
	return after && before
}

// readCoverBlocks reads a textfmt coverage profile and returns the
// blocks of the files under prefix, one per source range: a block that
// several binaries counted is hit when any of them hit it.
func readCoverBlocks(profile, prefix string) ([]*coverBlock, error) {
	raw, err := os.ReadFile(profile)
	if err != nil {
		return nil, err
	}
	byKey := map[string]*coverBlock{}
	var blocks []*coverBlock
	for _, line := range strings.Split(string(raw), "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		// file:l0.c0,l1.c1 stmts count
		var b coverBlock
		var count int
		key, rest, _ := strings.Cut(line, " ")
		file, span, _ := strings.Cut(key, ":")
		if _, err := fmt.Sscanf(span, "%d.%d,%d.%d", &b.line0, &b.col0, &b.line, &b.col); err != nil {
			return nil, fmt.Errorf("%s: %q: %v", profile, line, err)
		}
		if _, err := fmt.Sscanf(rest, "%d %d", &b.stmts, &count); err != nil {
			return nil, fmt.Errorf("%s: %q: %v", profile, line, err)
		}
		b.file, b.hit = file, count > 0
		if old := byKey[key]; old != nil {
			old.hit = old.hit || b.hit
			continue
		}
		byKey[key] = &b
		blocks = append(blocks, &b)
	}
	if len(blocks) == 0 {
		return nil, fmt.Errorf("%s: no blocks under %s", profile, prefix)
	}
	return blocks, nil
}

// TestCacheSeamCallSites pins the address cache's one seam in core:
// one place each where it is consulted (LookupEpoch), healed entry by
// entry (Remove), flushed node by node (InvalidateNode) and filled from
// (insertPiggyback), and InsertEpoch called from nowhere but that one
// filler.
func TestCacheSeamCallSites(t *testing.T) {
	l := newCensusLoader(t)
	p := l.pkgs["xlupc/internal/core"]
	sites := map[string]int{}
	var fills []string
	for _, f := range p.files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
				if !ok {
					return true
				}
				fn, ok := p.info.Uses[sel.Sel].(*types.Func)
				if !ok || fn.Type().(*types.Signature).Recv() == nil {
					return true
				}
				name := namedOf(fn.Type().(*types.Signature).Recv().Type()).Obj().Name() + "." + fn.Name()
				sites[name]++
				if name == "Cache.InsertEpoch" {
					fills = append(fills, fd.Name.Name)
				}
				return true
			})
		}
	}
	for _, name := range []string{"Cache.LookupEpoch", "Cache.Remove", "Cache.InvalidateNode", "amCtx.insertPiggyback"} {
		if sites[name] != 1 {
			t.Errorf("%s: %d call sites in internal/core, want 1", name, sites[name])
		}
	}
	if len(fills) == 0 {
		t.Error("Cache.InsertEpoch is called nowhere in internal/core")
	}
	for _, fn := range fills {
		if fn != "insertPiggyback" {
			t.Errorf("Cache.InsertEpoch called in %s, outside insertPiggyback", fn)
		}
	}
}

// censusPkg is one type-checked non-test package of the tree.
type censusPkg struct {
	dir   string
	types *types.Package
	files []*ast.File
	info  *types.Info
}

// censusLoader type-checks every non-test package of the tree from
// source (the files the default build context selects), recording each
// struct field some statement sets, each one some expression reads, and
// the values the statements give it.
type censusLoader struct {
	fset *token.FileSet
	root string
	std  types.Importer
	pkgs map[string]*censusPkg
	set  map[*types.Var]bool
	read map[*types.Var]bool
	// values holds each field's constant values (constant.Value's exact
	// string, "nil", or the zero value's); varying, the fields some
	// statement gives a value that is not a constant.
	values  map[*types.Var]map[string]bool
	varying map[*types.Var]bool
}

func newCensusLoader(t *testing.T) *censusLoader {
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	l := &censusLoader{
		fset: fset, root: root,
		std:  importer.ForCompiler(fset, "gc", nil),
		pkgs: map[string]*censusPkg{},
		set:  map[*types.Var]bool{},
		read: map[*types.Var]bool{},

		values:  map[*types.Var]map[string]bool{},
		varying: map[*types.Var]bool{},
	}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if base := d.Name(); path != root && (strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_") || base == "testdata") {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		_, err = l.Import(filepath.ToSlash(filepath.Join("xlupc", rel)))
		if noGo := (*build.NoGoError)(nil); errors.As(err, &noGo) {
			return nil
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// paths are the loaded packages' import paths, sorted.
func (l *censusLoader) paths() []string {
	var paths []string
	for path := range l.pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	return paths
}

// Import serves the tree's own packages (module xlupc, and module
// xlupc/benchmark in its subdirectory) from source and the standard
// library from export data.
func (l *censusLoader) Import(path string) (*types.Package, error) {
	if path != "xlupc" && !strings.HasPrefix(path, "xlupc/") {
		return l.std.Import(path)
	}
	if p, ok := l.pkgs[path]; ok {
		return p.types, nil
	}
	dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(path, "xlupc")))
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	pkg, err := (&types.Config{Importer: l}).Check(path, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = &censusPkg{dir: dir, types: pkg, files: files, info: info}
	for _, f := range files {
		l.record(f, info)
	}
	return pkg, nil
}

// record marks every struct field the statements of f set, and every
// one its expressions read: each field selection that is not the target
// of a plain assignment, and the embedded fields it passes through. It
// notes the value each setting gives the field too: a composite
// literal's element or the zero value of a field it leaves out, the
// right-hand side of a plain assignment, and a varying value for any
// other assignment, an increment, or taking the field's address.
func (l *censusLoader) record(f *ast.File, info *types.Info) {
	assigned := map[*ast.SelectorExpr]bool{}
	field := func(e ast.Expr) (*ast.SelectorExpr, *types.Selection) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
				return sel, s
			}
		}
		return nil, nil
	}
	give := func(v *types.Var, e ast.Expr) {
		l.set[v] = true
		tv := info.Types[e]
		switch {
		case e != nil && tv.Value != nil:
			l.value(v, tv.Value.ExactString())
		case e != nil && tv.IsNil():
			l.value(v, "nil")
		default:
			l.varying[v] = true
		}
	}
	target := func(e, rhs ast.Expr) {
		if _, s := field(e); s != nil {
			give(s.Obj().(*types.Var), rhs)
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			st, ok := info.Types[n].Type.Underlying().(*types.Struct)
			if !ok {
				break
			}
			given := map[*types.Var]bool{}
			for i, elt := range n.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					give(st.Field(i), elt)
					given[st.Field(i)] = true
					continue
				}
				for j := 0; j < st.NumFields(); j++ {
					if key, ok := kv.Key.(*ast.Ident); ok && st.Field(j).Name() == key.Name {
						give(st.Field(j), kv.Value)
						given[st.Field(j)] = true
					}
				}
			}
			for i := 0; i < st.NumFields(); i++ {
				if v := st.Field(i); !given[v] {
					l.value(v, zeroValue(v.Type()))
				}
			}
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				for i, lhs := range n.Lhs {
					var rhs ast.Expr
					if n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
						rhs = n.Rhs[i]
					}
					target(lhs, rhs)
					if sel, _ := field(lhs); sel != nil && n.Tok == token.ASSIGN {
						assigned[sel] = true
					}
				}
			}
		case *ast.IncDecStmt:
			target(n.X, nil)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				target(n.X, nil)
			}
		case *ast.SelectorExpr:
			s := info.Selections[n]
			if s == nil {
				break
			}
			// The embedded fields a promoted selection passes through
			// are read, whatever it does with the last one.
			typ := s.Recv()
			for _, i := range s.Index()[:len(s.Index())-1] {
				st := derefStruct(typ)
				if st == nil {
					break
				}
				l.read[st.Field(i)] = true
				typ = st.Field(i).Type()
			}
			if s.Kind() == types.FieldVal && !assigned[n] {
				l.read[s.Obj().(*types.Var)] = true
			}
		}
		return true
	})
}

// value notes that some statement gives field v the constant c.
func (l *censusLoader) value(v *types.Var, c string) {
	if l.values[v] == nil {
		l.values[v] = map[string]bool{}
	}
	l.values[v][c] = true
}

// valueList is the values non-test code gives field v, sorted.
func (l *censusLoader) valueList(v *types.Var) string {
	var vals []string
	for c := range l.values[v] {
		vals = append(vals, c)
	}
	sort.Strings(vals)
	return strings.Join(vals, ", ")
}

// zeroValue is the value a composite literal gives a field of type t
// that it leaves out, spelled as an explicit constant of that type would
// be.
func zeroValue(t types.Type) string {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		switch {
		case u.Info()&types.IsBoolean != 0:
			return constant.MakeBool(false).ExactString()
		case u.Info()&types.IsString != 0:
			return constant.MakeString("").ExactString()
		case u.Info()&types.IsNumeric != 0:
			return constant.MakeInt64(0).ExactString()
		}
	case *types.Struct, *types.Array:
		return "{}"
	}
	return "nil"
}

// derefStruct is the struct type t is or points to, or nil.
func derefStruct(t types.Type) *types.Struct {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, _ := t.Underlying().(*types.Struct)
	return st
}
