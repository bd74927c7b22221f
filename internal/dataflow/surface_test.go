package dataflow

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestSurfaceIsWhatTheModuleCalls keeps the package doc true — "the
// subset of Apache Spark that SparkER relies on": every exported
// package-level function of dataflow must be referenced as dataflow.X by
// non-test code elsewhere in the module. The two fault-injection options
// are configured by recovery tests by nature, so for them, and only
// them, a reference from another package's test counts.
func TestSurfaceIsWhatTheModuleCalls(t *testing.T) {
	testOnly := map[string]bool{"WithFaultInjection": true, "WithMaxTaskAttempts": true}

	fset := token.NewFileSet()
	own, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var exported []string
	for _, path := range own {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.IsExported() {
				exported = append(exported, fn.Name.Name)
			}
		}
	}
	if len(exported) == 0 {
		t.Fatal("found no exported function in the package's own sources")
	}

	// Tests run in the package directory: the module root is two up.
	const importPath = `"sparker/internal/dataflow"`
	root := filepath.Join("..", "..")
	self := filepath.Join(root, "internal", "dataflow")
	fromCode, fromTests := map[string]bool{}, map[string]bool{}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == self || path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		name := "" // what this file calls the package
		for _, imp := range f.Imports {
			if imp.Path.Value == importPath {
				name = "dataflow"
				if imp.Name != nil {
					name = imp.Name.Name
				}
			}
		}
		if name == "" {
			return nil
		}
		refs := fromCode
		if strings.HasSuffix(path, "_test.go") {
			refs = fromTests
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == name {
					refs[sel.Sel.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !fromCode["NewContext"] || !fromCode["Parallelize"] {
		t.Fatalf("the walk found no caller of NewContext or Parallelize; references seen: %v", fromCode)
	}
	for _, name := range exported {
		if !fromCode[name] && !(testOnly[name] && fromTests[name]) {
			t.Errorf("dataflow.%s has no caller outside the package: delete it, or it is not part of the subset SparkER relies on", name)
		}
	}
}
