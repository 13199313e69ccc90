package repro

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// modulePath is the root module's path in go.mod; bench/ requires it
// under the same name.
const modulePath = "repro"

// exportAllowList names exported identifiers that may lack a non-test
// caller, each with the reason. Keys are "importpath.Name" for top-level
// identifiers and "(*importpath.Type).Name" or "(importpath.Type).Name"
// for methods, as types.Func.FullName spells them.
var exportAllowList = map[string]string{
	"repro/internal/trace.ParsePcap":            "the pcap exporter's own parser: other packages' tests read captures back through it",
	"repro/internal/experiments.Scenarios":      "the cross-package scenario harness: experiments' and cmd/httpperf's tests replay every declared cell through it",
	"(*repro/internal/sim.Simulator).RunUntil":  "sim.Simulator's bounded run: tcpsim's tests stop the clock mid-transfer to inspect a connection",
	"(*repro/internal/report.Table).Value":      "a rendered table's cell by its row labels: report's tests and core's shape tests read numbers back through it",
	"(*repro/internal/css.Stylesheet).Validate": "the CSS1 property check: css's tests and webgen's cssified-site tests hold stylesheets to CSS1 through it",
}

// interfaceMethods are method names the standard library calls through
// an interface (fmt.Stringer, error, sort.Interface, io.Writer, …), so a
// method of that name has a caller even when no file in the tree names it.
var interfaceMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Read": true, "Write": true, "Close": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
}

// sweptPackage is one package of the root module or of bench/, parsed
// from its non-test Go files.
type sweptPackage struct {
	files    []*ast.File
	declares bool // declarations here are swept (root module only)
}

// TestEveryExportHasACaller holds the rule that every exported non-test
// identifier of the root module — top-level name or method — is used by
// some non-test .go file of the root module or of bench/, which calls
// the internal API. The tree is type-checked (the standard library from
// source), and a use is the object an identifier resolves to, so a
// method is used only where a selector resolves to that very method: a
// field or another type's method of the same name does not count. A
// call through an interface method uses that method of every type of
// the tree that implements the interface.
func TestEveryExportHasACaller(t *testing.T) {
	fset, pkgs, im, info := checkTree(t)

	// Declarations: exported top-level names and exported methods of
	// the root module's packages.
	var decls []types.Object
	var named []*types.Named // every named type, for interface calls
	for p, sp := range pkgs {
		scope := im.checked[p].Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok {
					named = append(named, n)
				}
			}
			if !sp.declares || !obj.Exported() || name == "main" {
				continue
			}
			decls = append(decls, obj)
		}
	}
	// Methods are swept whether their type is exported or not.
	for _, n := range named {
		if !pkgs[n.Obj().Pkg().Path()].declares {
			continue
		}
		for i := range n.NumMethods() {
			if m := n.Method(i); m.Exported() && !interfaceMethods[m.Name()] {
				decls = append(decls, m)
			}
		}
	}

	// A method's receiver names its type without using it.
	receivers := map[*ast.Ident]bool{}
	for _, sp := range pkgs {
		for _, f := range sp.files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
					ast.Inspect(fd.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							receivers[id] = true
						}
						return true
					})
				}
			}
		}
	}
	used := map[types.Object]bool{}
	for id, obj := range info.Uses {
		if receivers[id] {
			continue
		}
		f, ok := obj.(*types.Func)
		if !ok {
			used[obj] = true
			continue
		}
		f = f.Origin()
		used[f] = true
		recv := f.Type().(*types.Signature).Recv()
		if recv == nil {
			continue
		}
		iface, ok := recv.Type().Underlying().(*types.Interface)
		if !ok {
			continue
		}
		for _, n := range named {
			if n.TypeParams().Len() > 0 {
				continue // Implements wants an instantiated type
			}
			if types.Implements(n, iface) || types.Implements(types.NewPointer(n), iface) {
				if m, _, _ := types.LookupFieldOrMethod(n, true, n.Obj().Pkg(), f.Name()); m != nil {
					used[m.(*types.Func).Origin()] = true
				}
			}
		}
	}

	for _, obj := range decls {
		key := exportKey(obj)
		if !used[obj] && exportAllowList[key] == "" {
			t.Errorf("%s: %s has no non-test caller: delete it, unexport it, or move it into a _test.go", fset.Position(obj.Pos()), key)
		}
		if used[obj] && exportAllowList[key] != "" {
			t.Errorf("allow-list entry %s now has a non-test caller: drop the entry", key)
		}
	}
}

// A checkedTree is the non-test files of the root module and of bench/,
// type-checked with the standard library from source, every package's
// uses recorded in one Info.
type checkedTree struct {
	fset *token.FileSet
	pkgs map[string]*sweptPackage
	im   *treeImporter
	info *types.Info
	err  error
}

var (
	treeOnce sync.Once
	tree     checkedTree
)

// checkTree returns the checked tree, building it on first use: the
// tests that read it share one type-check.
func checkTree(t *testing.T) (*token.FileSet, map[string]*sweptPackage, *treeImporter, *types.Info) {
	t.Helper()
	treeOnce.Do(func() {
		tree.fset = token.NewFileSet()
		tree.pkgs = map[string]*sweptPackage{}
		if tree.err = parseTree(tree.fset, ".", modulePath, true, tree.pkgs); tree.err != nil {
			return
		}
		if tree.err = parseTree(tree.fset, "bench", modulePath+"/bench", false, tree.pkgs); tree.err != nil {
			return
		}
		tree.info = &types.Info{
			Defs: map[*ast.Ident]types.Object{},
			Uses: map[*ast.Ident]types.Object{},
		}
		tree.im = &treeImporter{fset: tree.fset, std: importer.ForCompiler(tree.fset, "source", nil),
			pkgs: tree.pkgs, checked: map[string]*types.Package{}, info: tree.info}
		for p := range tree.pkgs {
			if _, err := tree.im.Import(p); err != nil {
				tree.err = fmt.Errorf("type-checking %s: %v", p, err)
				return
			}
		}
	})
	if tree.err != nil {
		t.Fatal(tree.err)
	}
	return tree.fset, tree.pkgs, tree.im, tree.info
}

// TestEveryAssignedFieldIsRead holds the rule that an exported struct
// field of the root module which root non-test code writes is read
// somewhere in the root module or bench/, tests included: a counter
// that is kept but never looked at is waste. A write is an assignment
// to the field, an increment of it, or a composite-literal key naming
// it; any other use reads it. Reading a whole struct (comparing it,
// printing it) reads none of its fields by name, so it does not count.
// Structs with JSON tags are exempt, since encoding/json reads their
// fields. Test files are type-checked as their package's test variant,
// and a field is matched across variants by its declaration.
func TestEveryAssignedFieldIsRead(t *testing.T) {
	fset, pkgs, im, info := checkTree(t)

	// The candidates: exported, non-embedded fields of the root
	// module's named struct types without JSON tags, by declaration.
	fields := map[token.Pos]string{}
	for p, sp := range pkgs {
		if !sp.declares {
			continue
		}
		scope := im.checked[p].Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok || hasJSONTag(st) {
				continue
			}
			for i := range st.NumFields() {
				if f := st.Field(i); f.Exported() && !f.Embedded() {
					fields[f.Pos()] = p + "." + name + "." + f.Name()
				}
			}
		}
	}

	assigned, read := map[token.Pos]bool{}, map[token.Pos]bool{}
	tally := func(files []*ast.File, uses map[*ast.Ident]types.Object, rootCode bool) {
		for _, f := range files {
			writes := fieldWrites(f)
			ast.Inspect(f, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				obj := uses[id]
				if obj == nil || fields[obj.Pos()] == "" {
					return true
				}
				switch {
				case !writes[id]:
					read[obj.Pos()] = true
				case rootCode:
					assigned[obj.Pos()] = true
				}
				return true
			})
		}
	}
	for _, sp := range pkgs {
		tally(sp.files, info.Uses, sp.declares)
	}
	for _, v := range testVariants(t, fset, pkgs, im) {
		tally(v.files, v.uses, false)
	}

	for pos, name := range fields {
		if assigned[pos] && !read[pos] {
			t.Errorf("%s: %s is written but never read: delete it", fset.Position(pos), name)
		}
	}
}

// hasJSONTag reports whether any field of st carries a json struct tag.
func hasJSONTag(st *types.Struct) bool {
	for i := range st.NumFields() {
		if strings.Contains(st.Tag(i), `json:"`) {
			return true
		}
	}
	return false
}

// fieldWrites returns the identifiers in f that name a field being
// written: the selector of an assignment's or increment's operand, and
// a composite literal's key.
func fieldWrites(f *ast.File) map[*ast.Ident]bool {
	writes := map[*ast.Ident]bool{}
	target := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			writes[sel.Sel] = true
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				target(lhs)
			}
		case *ast.IncDecStmt:
			target(n.X)
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						writes[id] = true
					}
				}
			}
		}
		return true
	})
	return writes
}

// A testVariant is one package's test files with the uses they resolve
// to.
type testVariant struct {
	files []*ast.File
	uses  map[*ast.Ident]types.Object
}

// testVariants type-checks the test files of every package in pkgs, as
// go test builds them: in-package test files with the package's own
// files, and an external _test package against that variant. Other
// imports resolve to the non-test packages, so a test that mixes the
// two variants of one type draws type errors; they are ignored, and
// the uses that did resolve are kept.
func testVariants(t *testing.T, fset *token.FileSet, pkgs map[string]*sweptPackage, im *treeImporter) []testVariant {
	t.Helper()
	var out []testVariant
	for p, sp := range pkgs {
		if len(sp.files) == 0 {
			continue
		}
		internal, external := parseTests(t, fset, filepath.Dir(fset.Position(sp.files[0].Pos()).Filename))
		if len(internal)+len(external) == 0 {
			continue
		}
		check := func(path string, files []*ast.File, imp types.Importer) *types.Package {
			uses := map[*ast.Ident]types.Object{}
			conf := types.Config{Importer: imp, Error: func(error) {}}
			pkg, _ := conf.Check(path, fset, files, &types.Info{Uses: uses})
			out = append(out, testVariant{files, uses})
			return pkg
		}
		variant := check(p, append(slices.Clip(sp.files), internal...), im)
		if len(external) > 0 {
			check(p+"_test", external, importerFunc(func(q string) (*types.Package, error) {
				if q == p {
					return variant, nil
				}
				return im.Import(q)
			}))
		}
	}
	return out
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// parseTests parses the _test.go files in dir that the build context
// selects, split into in-package and external (package x_test) files.
func parseTests(t *testing.T, fset *token.FileSet, dir string) (internal, external []*ast.File) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, e.Name()); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		if strings.HasSuffix(f.Name.Name, "_test") {
			external = append(external, f)
		} else {
			internal = append(internal, f)
		}
	}
	return internal, external
}

// exportKey names obj as exportAllowList does.
func exportKey(obj types.Object) string {
	if f, ok := obj.(*types.Func); ok && f.Type().(*types.Signature).Recv() != nil {
		return f.FullName()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// treeImporter type-checks the tree's packages from their parsed files,
// each once, recording every package's uses in one Info, and imports
// the standard library with std.
type treeImporter struct {
	fset    *token.FileSet
	std     types.Importer
	pkgs    map[string]*sweptPackage
	checked map[string]*types.Package
	info    *types.Info
}

func (im *treeImporter) Import(p string) (*types.Package, error) {
	if pkg, ok := im.checked[p]; ok {
		return pkg, nil
	}
	sp, ok := im.pkgs[p]
	if !ok {
		return im.std.Import(p)
	}
	conf := types.Config{Importer: im}
	pkg, err := conf.Check(p, im.fset, sp.files, im.info)
	im.checked[p] = pkg
	return pkg, err
}

// parseTree parses every non-test .go file under root into pkgs by
// import path, skipping testdata and nested modules other than root
// itself. prefix is the import path of root.
func parseTree(fset *token.FileSet, root, prefix string, declares bool, pkgs map[string]*sweptPackage) error {
	return filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root {
				if d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
					return filepath.SkipDir
				}
				if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
					return filepath.SkipDir
				}
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		ip := path.Join(prefix, filepath.ToSlash(rel))
		if pkgs[ip] == nil {
			pkgs[ip] = &sweptPackage{declares: declares}
		}
		pkgs[ip].files = append(pkgs[ip].files, f)
		return nil
	})
}
