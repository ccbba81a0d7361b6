package xlupc

import (
	"errors"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
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
}

// censusExceptions are the knobs that no non-test code sets, or that no
// non-test code reads, but that stay, each with the reason. An entry
// whose field is set and read after all, or no longer exists, fails the
// census too: the table holds exactly the survivors.
var censusExceptions = map[string]string{
	"kv.Options.WriteWindow":      "the test hook that widens the seqlock window to provoke torn reads deterministically",
	"dis.Params.SplitPhase":       "pinned by trace/golden_test.go and the *splitphase rows of bench's parity_golden.json",
	"dis.Params.Atomic":           "pinned by trace/golden_test.go and the *atomic* rows of bench's parity_golden.json",
	"core.PinConfig.MaxPerObject": "pinned by the pin-refused row of core's roundtrip_golden.json",
	"core.CrashConfig.Mode":       "selects the typed CrashError path: error handling, not a tuning knob",
	"core.Config.Exec":            "assigned by the frozen benchmark/api.go, which must keep compiling; the runtime has one engine and reads it nowhere",
}

// TestConfigCensus fails on any knob that no non-test .go file in the
// tree (benchmark/ included) ever sets — by a composite literal, an
// assignment, an increment or by taking its address — or ever reads. A
// knob nothing but the tests can turn selects code no run reaches, and a
// knob nothing reads selects nothing: it goes, together with that code,
// or it earns an entry in censusExceptions.
func TestConfigCensus(t *testing.T) {
	l := newCensusLoader(t)
	unset, unread := map[string]bool{}, map[string]bool{}
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
			unset[name+"."+f.Name()] = !l.set[f]
			unread[name+"."+f.Name()] = !l.read[f]
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
	var names []string
	for name := range unset {
		if unset[name] || unread[name] {
			names = append(names, name)
		}
	}
	for name := range censusExceptions {
		if !unset[name] && !unread[name] {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		_, excepted := censusExceptions[name]
		switch {
		case excepted && !unset[name] && !unread[name]:
			t.Errorf("censusExceptions lists %s, which non-test code sets and reads or which no longer exists", name)
		case excepted:
		case unset[name]:
			t.Errorf("%s is set by no non-test code: delete it and what it selects, or give it a setter", name)
		default:
			t.Errorf("%s is read by no non-test code: delete it, or give it a reader", name)
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
	"addrcache.Cache.Keys":         "TestKeysMRUOrder",
	"addrcache.Cache.Resident":     "TestAdaptiveEvictsOverSharePeer",
	"addrcache.Cache.Share":        "TestAdaptiveSharesFollowHits",
	"flight.Record":                "TestWriteJSONLRoundTrip",
	"mem.PinTable.IsPinned":        "TestPinLimitedEvictsLRU",
	"mem.Space.CheckInvariants":    "TestPropertyAllocatorIntegrity",
	"mem.Space.Live":               "TestSpaceAccounting",
	"mem.Space.SizeOf":             "TestAllocAlignmentAndRounding",
	"sim.Completion.CompleteAfter": "TestCompleteAfter",
	"sim.Kernel.SetLimit":          "TestSetLimitStopsBeforeEvent",
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

// testReads reports why test — a test of p's directory, or pkg.TestName
// for one in internal/pkg — is not a test that names ident, or nil.
func (l *censusLoader) testReads(p *censusPkg, test, ident string) error {
	dir := p.dir
	if pkg, name, ok := strings.Cut(test, "."); ok {
		dir, test = filepath.Join(l.root, "internal", pkg), name
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
// struct field some statement sets and each one some expression reads.
type censusLoader struct {
	fset *token.FileSet
	root string
	std  types.Importer
	pkgs map[string]*censusPkg
	set  map[*types.Var]bool
	read map[*types.Var]bool
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
// of a plain assignment, and the embedded fields it passes through.
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
	target := func(e ast.Expr) {
		if _, s := field(e); s != nil {
			l.set[s.Obj().(*types.Var)] = true
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			st, ok := info.Types[n].Type.Underlying().(*types.Struct)
			if !ok {
				break
			}
			for i, elt := range n.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					l.set[st.Field(i)] = true
					continue
				}
				for j := 0; j < st.NumFields(); j++ {
					if key, ok := kv.Key.(*ast.Ident); ok && st.Field(j).Name() == key.Name {
						l.set[st.Field(j)] = true
					}
				}
			}
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				for _, lhs := range n.Lhs {
					target(lhs)
					if sel, _ := field(lhs); sel != nil && n.Tok == token.ASSIGN {
						assigned[sel] = true
					}
				}
			}
		case *ast.IncDecStmt:
			target(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				target(n.X)
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

// derefStruct is the struct type t is or points to, or nil.
func derefStruct(t types.Type) *types.Struct {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, _ := t.Underlying().(*types.Struct)
	return st
}
