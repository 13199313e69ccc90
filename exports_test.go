package repro

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"strings"
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
	fset := token.NewFileSet()
	pkgs := map[string]*sweptPackage{}
	parseTree(t, fset, ".", modulePath, true, pkgs)
	parseTree(t, fset, "bench", modulePath+"/bench", false, pkgs)

	info := &types.Info{
		Defs: map[*ast.Ident]types.Object{},
		Uses: map[*ast.Ident]types.Object{},
	}
	im := &treeImporter{fset: fset, std: importer.ForCompiler(fset, "source", nil),
		pkgs: pkgs, checked: map[string]*types.Package{}, info: info}
	for p := range pkgs {
		if _, err := im.Import(p); err != nil {
			t.Fatalf("type-checking %s: %v", p, err)
		}
	}

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
func parseTree(t *testing.T, fset *token.FileSet, root, prefix string, declares bool, pkgs map[string]*sweptPackage) {
	t.Helper()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
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
	if err != nil {
		t.Fatal(err)
	}
}
