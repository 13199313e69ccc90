package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
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
// identifiers and "(method) Name" for methods.
var exportAllowList = map[string]string{
	"repro/internal/trace.ParsePcap":       "the pcap exporter's own parser: other packages' tests read captures back through it",
	"repro/internal/experiments.Scenarios": "the cross-package scenario harness: experiments' and cmd/httpperf's tests replay every declared cell through it",
	"(method) RunUntil":                    "sim.Simulator's bounded run: tcpsim's tests stop the clock mid-transfer to inspect a connection",
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

// sweptFile is one parsed non-test Go file of the root module or bench/.
type sweptFile struct {
	importPath string // the package's import path
	file       *ast.File
	declares   bool // declarations here are swept (root module only)
}

// TestEveryExportHasACaller holds the rule that every exported non-test
// identifier of the root module — top-level name or method — is used by
// some non-test .go file of the root module or of bench/, which calls
// the internal API. Uses are found by name, without type checking: a
// top-level name is used by a bare reference inside its own package or
// by a pkg.Name selector elsewhere; a method is used by any .Name
// selector. A declaration, its receiver, a struct field name and an
// interface method name are not uses. Matching methods by name misses a
// dead method that shares its name with a live method or a field read
// through a selector, as Robot.CPUTime, Server.CPUTime, Link.Sent and
// the Cache fields hid the uncalled Proxy.CPUTime, Path.Sent,
// Proxy.Cache and Robot.Cache.
func TestEveryExportHasACaller(t *testing.T) {
	fset := token.NewFileSet()
	files := parseTree(t, fset, ".", modulePath, true)
	files = append(files, parseTree(t, fset, "bench", "", false)...)

	// Package names by import path, for resolving import aliases.
	pkgName := map[string]string{}
	for _, f := range files {
		pkgName[f.importPath] = f.file.Name.Name
	}

	used := map[string]bool{}
	type decl struct {
		key string
		pos token.Pos
	}
	var decls []decl
	for _, f := range files {
		// Idents that declare rather than use.
		skip := map[*ast.Ident]bool{}
		for _, d := range f.file.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				skip[d.Name] = true
				if d.Recv != nil {
					ast.Inspect(d.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							skip[id] = true
						}
						return true
					})
					if f.declares && d.Name.IsExported() && !interfaceMethods[d.Name.Name] {
						decls = append(decls, decl{"(method) " + d.Name.Name, d.Pos()})
					}
				} else if f.declares && d.Name.IsExported() && d.Name.Name != "main" {
					decls = append(decls, decl{f.importPath + "." + d.Name.Name, d.Pos()})
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					var names []*ast.Ident
					switch s := s.(type) {
					case *ast.TypeSpec:
						names = []*ast.Ident{s.Name}
					case *ast.ValueSpec:
						names = s.Names
					}
					for _, id := range names {
						skip[id] = true
						if f.declares && id.IsExported() {
							decls = append(decls, decl{f.importPath + "." + id.Name, id.Pos()})
						}
					}
				}
			}
		}
		ast.Inspect(f.file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Field:
				for _, id := range n.Names {
					skip[id] = true
				}
			}
			return true
		})

		imports := map[string]string{} // local name → import path
		for _, imp := range f.file.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			name, ok := pkgName[p]
			if !ok {
				continue // the standard library
			}
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = p
		}

		ast.Inspect(f.file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if p, ok := imports[x.Name]; ok {
						used[p+"."+n.Sel.Name] = true
						return false
					}
				}
				used["(method) "+n.Sel.Name] = true
			case *ast.Ident:
				if !skip[n] {
					used[f.importPath+"."+n.Name] = true
				}
			}
			return true
		})
	}

	for _, d := range decls {
		if !used[d.key] && exportAllowList[d.key] == "" {
			t.Errorf("%s: %s has no non-test caller: delete it, unexport it, or move it into a _test.go", fset.Position(d.pos), d.key)
		}
	}
	for key := range exportAllowList {
		if used[key] {
			t.Errorf("allow-list entry %s now has a non-test caller: drop the entry", key)
		}
	}
}

// parseTree parses every non-test .go file under root, skipping testdata
// and nested modules other than root itself. prefix is the import path of
// root ("" for a main-only module such as bench/).
func parseTree(t *testing.T, fset *token.FileSet, root, prefix string, declares bool) []sweptFile {
	t.Helper()
	var out []sweptFile
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
		out = append(out, sweptFile{importPath: ip, file: f, declares: declares})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}
