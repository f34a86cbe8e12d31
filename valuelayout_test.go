package dvm_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// goFiles parses every .go file of the tree (the nested perf/ module
// included; lint fixtures and hidden directories skipped) and hands each
// to visit under its slash-separated path.
func goFiles(t *testing.T, fset *token.FileSet, mode parser.Mode, visit func(path string, f *ast.File)) {
	t.Helper()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == "testdata" || (name != "." && strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, mode)
		if err != nil {
			return err
		}
		visit(filepath.ToSlash(path), f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestUnsafeStaysInValueGo: schema.Value packs a type tag or a string's
// data pointer into one unsafe.Pointer; internal/schema/value.go argues
// why that is sound, and the argument covers that file only. No other
// non-test file may import unsafe.
func TestUnsafeStaysInValueGo(t *testing.T) {
	const home = "internal/schema/value.go"
	found := false
	goFiles(t, token.NewFileSet(), parser.ImportsOnly, func(path string, f *ast.File) {
		if strings.HasSuffix(path, "_test.go") {
			return
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p != "unsafe" {
				continue
			}
			if path == home {
				found = true
			} else {
				t.Errorf("%s imports unsafe; only %s may", path, home)
			}
		}
	})
	if !found {
		t.Errorf("%s no longer imports unsafe: this test and the file's layout note are stale", home)
	}
}

// TestNoDeepEqualOnValues: a schema.Value's first word is a pointer, so
// reflect.DeepEqual on anything that holds a Value (a Tuple, a sql.Lit,
// an index entry) asks whether two strings are the same bytes in memory,
// not whether they are equal. (== needs no test: Value is declared
// not comparable, and a Tuple is a slice.) This test cannot type-check,
// so it lists the files whose DeepEqual calls have been read and hold no
// Value; use Value.Equal / Tuple.Equal / Bag.Equal elsewhere, or add the
// file here with what it compares.
func TestNoDeepEqualOnValues(t *testing.T) {
	valueFree := map[string]string{
		"internal/bag/props_test.go": "indexContents: map[join key]map[tuple key]count, strings and ints only",
	}
	fset := token.NewFileSet()
	goFiles(t, fset, 0, func(path string, f *ast.File) {
		if _, ok := valueFree[path]; ok {
			return
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "DeepEqual" {
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "reflect" {
					t.Errorf("%s: reflect.DeepEqual would compare a schema.Value by string identity", fset.Position(sel.Pos()))
				}
			}
			return true
		})
	})
}
