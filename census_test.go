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
}

// censusExceptions are the knobs that no non-test code sets but that
// stay, each with the reason. An entry whose field is set after all, or
// no longer exists, fails the census too: the table holds exactly the
// survivors.
var censusExceptions = map[string]string{
	"kv.Options.WriteWindow":      "the test hook that widens the seqlock window to provoke torn reads deterministically",
	"dis.Params.SplitPhase":       "pinned by trace/golden_test.go and the *splitphase rows of bench's parity_golden.json",
	"dis.Params.Atomic":           "pinned by trace/golden_test.go and the *atomic* rows of bench's parity_golden.json",
	"core.PinConfig.MaxPerObject": "pinned by the pin-refused row of core's roundtrip_golden.json",
	"core.CrashConfig.Mode":       "selects the typed CrashError path: error handling, not a tuning knob",
}

// TestConfigCensus fails on any knob that no non-test .go file in the
// tree (benchmark/ included) ever sets: by a composite literal, an
// assignment, an increment or by taking its address. A knob nothing but
// the tests can turn selects code no run reaches: it goes, together
// with that code, or it earns an entry in censusExceptions.
func TestConfigCensus(t *testing.T) {
	l := newCensusLoader(t)
	unset := map[string]bool{}
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
			if !l.set[f] {
				unset[name+"."+f.Name()] = true
			}
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
		obj, ok := pkg.Scope().Lookup(r.name).(*types.TypeName)
		if !ok {
			t.Fatalf("%s.%s is not a type", r.pkg, r.name)
		}
		walk(obj.Type().(*types.Named))
	}
	var names []string
	for name := range unset {
		names = append(names, name)
	}
	for name := range censusExceptions {
		if !unset[name] {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		_, excepted := censusExceptions[name]
		switch {
		case unset[name] && !excepted:
			t.Errorf("%s is set by no non-test code: delete it and what it selects, or give it a reader", name)
		case !unset[name]:
			t.Errorf("censusExceptions lists %s, which non-test code sets or which no longer exists", name)
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

// censusLoader type-checks every non-test package of the tree from
// source (the files the default build context selects), recording each
// struct field some statement sets.
type censusLoader struct {
	fset *token.FileSet
	root string
	std  types.Importer
	pkgs map[string]*types.Package
	set  map[*types.Var]bool
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
		pkgs: map[string]*types.Package{},
		set:  map[*types.Var]bool{},
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

// Import serves the tree's own packages (module xlupc, and module
// xlupc/benchmark in its subdirectory) from source and the standard
// library from export data.
func (l *censusLoader) Import(path string) (*types.Package, error) {
	if path != "xlupc" && !strings.HasPrefix(path, "xlupc/") {
		return l.std.Import(path)
	}
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
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
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	pkg, err := (&types.Config{Importer: l}).Check(path, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	for _, f := range files {
		l.record(f, info)
	}
	return pkg, nil
}

// record marks every struct field the statements of f set.
func (l *censusLoader) record(f *ast.File, info *types.Info) {
	target := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
				l.set[s.Obj().(*types.Var)] = true
			}
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
				}
			}
		case *ast.IncDecStmt:
			target(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				target(n.X)
			}
		}
		return true
	})
}
