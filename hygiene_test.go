package ants_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestPackageComments enforces the documentation floor CI's docs job
// gates on: every Go package in the repository — the root facade, every
// internal/ package, every cmd/ command and every examples/ program — has
// a package (doc) comment on at least one of its files.
func TestPackageComments(t *testing.T) {
	pkgFiles := map[string][]string{} // package dir -> .go files (tests excluded)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		pkgFiles[dir] = append(pkgFiles[dir], path)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgFiles) < 10 {
		t.Fatalf("found only %d packages — is the test running from the repo root?", len(pkgFiles))
	}

	fset := token.NewFileSet()
	for dir, files := range pkgFiles {
		documented := false
		for _, file := range files {
			f, err := parser.ParseFile(fset, file, nil, parser.PackageClauseOnly|parser.ParseComments)
			if err != nil {
				t.Errorf("parse %s: %v", file, err)
				continue
			}
			if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
				documented = true
				break
			}
		}
		if !documented {
			t.Errorf("package %s has no package comment on any of its files", dir)
		}
	}
}

// TestServiceDocCoverage audits godoc coverage of the service surface:
// every exported identifier in internal/service and in the facade
// (ants.go) — types, functions, methods, consts, vars, and exported
// struct fields — must carry a doc comment. The service layer is the
// documented wire surface of the project, so undocumented exports are
// regressions, not style nits.
func TestServiceDocCoverage(t *testing.T) {
	var files []string
	matches, err := filepath.Glob(filepath.Join("internal", "service", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range matches {
		if !strings.HasSuffix(m, "_test.go") {
			files = append(files, m)
		}
	}
	files = append(files, "ants.go")
	if len(files) < 2 {
		t.Fatalf("found only %d files to audit — is the test running from the repo root?", len(files))
	}

	fset := token.NewFileSet()
	for _, file := range files {
		f, err := parser.ParseFile(fset, file, nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parse %s: %v", file, err)
		}
		undocumented := func(pos token.Pos, kind, name string) {
			t.Errorf("%s: exported %s %s has no doc comment", fset.Position(pos), kind, name)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv != nil && !exportedReceiver(d.Recv) {
					continue
				}
				if d.Doc == nil {
					undocumented(d.Pos(), "func", d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						if !sp.Name.IsExported() {
							continue
						}
						if d.Doc == nil && sp.Doc == nil {
							undocumented(sp.Pos(), "type", sp.Name.Name)
						}
						if st, ok := sp.Type.(*ast.StructType); ok {
							auditFields(t, fset, sp.Name.Name, st)
						}
					case *ast.ValueSpec:
						for _, name := range sp.Names {
							if !name.IsExported() {
								continue
							}
							if d.Doc == nil && sp.Doc == nil && sp.Comment == nil {
								undocumented(name.Pos(), "const/var", name.Name)
							}
						}
					}
				}
			}
		}
	}
}

// TestFacadeExportsHaveUsers keeps the facade (ants.go) to the names its
// users call: every exported name must be referenced by an examples/
// program, README.md, a docs/ page or a root Example function, or be named
// in the signature of a facade function that is (so callers can declare
// what it takes and returns).
func TestFacadeExportsHaveUsers(t *testing.T) {
	fset := token.NewFileSet()
	facade, err := parser.ParseFile(fset, "ants.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var exported []string
	sigs := map[string]*ast.FuncType{}
	for _, decl := range facade.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				exported = append(exported, d.Name.Name)
				sigs[d.Name.Name] = d.Type
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					if sp.Name.IsExported() {
						exported = append(exported, sp.Name.Name)
					}
				case *ast.ValueSpec:
					for _, name := range sp.Names {
						if name.IsExported() {
							exported = append(exported, name.Name)
						}
					}
				}
			}
		}
	}
	if len(exported) == 0 {
		t.Fatal("ants.go exports nothing — is the test running from the repo root?")
	}

	used := map[string]bool{}
	docRef := regexp.MustCompile(`\bants\.([A-Z]\w*)`)
	docs, err := filepath.Glob(filepath.Join("docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range append(docs, "README.md") {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range docRef.FindAllStringSubmatch(string(data), -1) {
			used[m[1]] = true
		}
	}
	markCalls := func(f *ast.File, n ast.Node) {
		local := ""
		for _, imp := range f.Imports {
			if imp.Path.Value == `"repro"` {
				local = "ants"
				if imp.Name != nil {
					local = imp.Name.Name
				}
			}
		}
		ast.Inspect(n, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && local != "" && x.Name == local {
					used[sel.Sel.Name] = true
				}
			}
			return true
		})
	}
	err = filepath.WalkDir("examples", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		markCalls(f, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	tests, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range tests {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Example") {
				markCalls(f, fn)
			}
		}
	}

	// A used function's signature makes the facade types it names used.
	for name, sig := range sigs {
		if !used[name] {
			continue
		}
		ast.Inspect(sig, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				used[id.Name] = true
			}
			return true
		})
	}
	sort.Strings(exported)
	for _, name := range exported {
		if !used[name] {
			t.Errorf("ants.go exports %s, which no examples/ program, README.md, docs/ page or root Example function references; drop it or use it", name)
		}
	}
}

// exportedReceiver reports whether a method's receiver type is exported
// (methods on unexported types are not part of the public surface).
func exportedReceiver(recv *ast.FieldList) bool {
	if len(recv.List) == 0 {
		return false
	}
	typ := recv.List[0].Type
	for {
		switch tt := typ.(type) {
		case *ast.StarExpr:
			typ = tt.X
		case *ast.IndexExpr:
			typ = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return false
		}
	}
}

// auditFields requires a doc or line comment on every exported field of an
// exported struct.
func auditFields(t *testing.T, fset *token.FileSet, typeName string, st *ast.StructType) {
	for _, field := range st.Fields.List {
		if field.Doc != nil || field.Comment != nil {
			continue
		}
		for _, name := range field.Names {
			if name.IsExported() {
				t.Errorf("%s: exported field %s.%s has no doc comment",
					fset.Position(name.Pos()), typeName, name.Name)
			}
		}
	}
}

// TestNoMisplacedArtifacts keeps stray sweep caches and result artifacts
// out of the tree: they belong under ignored paths, not in version
// control.
func TestNoMisplacedArtifacts(t *testing.T) {
	if _, err := os.Stat(".sweepcache"); err == nil {
		t.Error(".sweepcache committed to the repo root; it is scratch state")
	}
}
