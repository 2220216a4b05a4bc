package ants_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/service"
)

// TestREADMEFlagTableMatchesCode asserts the README's "CLI flags" table
// against the flag definitions in the cmd/ sources: every documented flag
// exists in the code and every defined flag is documented, for every
// command. The flags are extracted from the AST (calls fs.String,
// fs.Bool, ... on the command's flag set), so the test needs no
// execution.
func TestREADMEFlagTableMatchesCode(t *testing.T) {
	documented := readmeFlagTable(t)

	cmds, err := filepath.Glob(filepath.Join("cmd", "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(cmds) == 0 {
		t.Fatal("no cmd/ directories — is the test running from the repo root?")
	}
	inCode := map[string][]string{}
	for _, dir := range cmds {
		name := filepath.Base(dir)
		flags, err := flagsInCommand(dir)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		inCode[name] = flags
	}

	for name, flags := range inCode {
		doc, ok := documented[name]
		if !ok {
			t.Errorf("command %s missing from the README CLI-flags table", name)
			continue
		}
		if fmt.Sprint(flags) != fmt.Sprint(doc) {
			t.Errorf("%s flags differ:\n  code:   %v\n  README: %v", name, flags, doc)
		}
	}
	for name := range documented {
		if _, ok := inCode[name]; !ok {
			t.Errorf("README CLI-flags table documents %s, which has no cmd/%s", name, name)
		}
	}
}

// readmeFlagTable parses README.md's "### CLI flags" table into
// command → sorted flag names.
func readmeFlagTable(t *testing.T) map[string][]string {
	t.Helper()
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, found := strings.Cut(string(data), "### CLI flags")
	if !found {
		t.Fatal("README.md has no '### CLI flags' section")
	}
	rowRE := regexp.MustCompile("(?m)^\\| `([a-z]+)` \\| `([^`]+)` \\|$")
	out := map[string][]string{}
	for _, m := range rowRE.FindAllStringSubmatch(section, -1) {
		var flags []string
		for _, f := range strings.Fields(m[2]) {
			flags = append(flags, strings.TrimPrefix(f, "-"))
		}
		sort.Strings(flags)
		out[m[1]] = flags
	}
	if len(out) == 0 {
		t.Fatal("README CLI-flags table has no rows")
	}
	return out
}

// flagDefMethods are the flag.FlagSet definition methods whose first
// argument names the flag.
var flagDefMethods = map[string]bool{
	"Bool": true, "Duration": true, "Float64": true, "Int": true,
	"Int64": true, "String": true, "Uint": true, "Uint64": true,
}

// flagsInCommand extracts the sorted flag names a command defines, by
// scanning its non-test sources for fs.<Def>("name", ...) calls on the
// command's flag set.
func flagsInCommand(dir string) ([]string, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var flags []string
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			return nil, err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !flagDefMethods[sel.Sel.Name] || len(call.Args) < 3 {
				return true
			}
			if recv, ok := sel.X.(*ast.Ident); !ok || recv.Name != "fs" {
				return true
			}
			if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				flags = append(flags, strings.Trim(lit.Value, `"`))
			}
			return true
		})
	}
	sort.Strings(flags)
	return flags, nil
}

// TestAPIDocCoversRouteTable asserts docs/API.md and the registered route
// table name exactly the same endpoints: every route has a `### `METHOD
// /path“ heading and every documented endpoint heading is a registered
// route.
func TestAPIDocCoversRouteTable(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("docs", "API.md"))
	if err != nil {
		t.Fatal(err)
	}
	headingRE := regexp.MustCompile("(?m)^### `(GET|POST|DELETE|PUT|PATCH) (/[^`]*)`$")
	documented := map[string]bool{}
	for _, m := range headingRE.FindAllStringSubmatch(string(data), -1) {
		documented[m[1]+" "+m[2]] = true
	}
	if len(documented) == 0 {
		t.Fatal("docs/API.md has no endpoint headings (### `METHOD /path`)")
	}

	registered := map[string]bool{}
	for _, rt := range service.RouteTable() {
		key := rt.Method + " " + rt.Pattern
		registered[key] = true
		if !documented[key] {
			t.Errorf("route %s is registered but has no docs/API.md heading", key)
		}
	}
	for key := range documented {
		if !registered[key] {
			t.Errorf("docs/API.md documents %s, which is not in the route table", key)
		}
	}
}
