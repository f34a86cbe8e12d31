package main

import (
	"os"
	"path/filepath"
	"testing"
)

// writeTree lays out files under a temp dir and chdirs into it for the
// duration of the test (anchors resolve relative to the working
// directory, as in the real invocation from the repo root).
func writeTree(t *testing.T, files map[string]string) {
	t.Helper()
	dir := t.TempDir()
	for name, content := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Chdir(dir)
	declCache = map[string]map[string]bool{}
}

const someGo = "package p\n\nvar x = 1\n\n// Frob frobs.\nfunc Frob() {}\n\ntype T struct{ f int }\n\nfunc (t *T) Run() {}\n"

func TestAnchorsResolve(t *testing.T) {
	writeTree(t, map[string]string{
		"pkg/some.go": someGo,
		"doc.md": "See `pkg/some.go` (`Frob`) and `pkg/some.go` (`T.Run`), and a\n" +
			"symbol on the next line, `pkg/some.go`\n(`x`), and plain `pkg/some.go`.\n" +
			"Also a [link](pkg/some.go) and an [external](https://example.com/x:9).\n",
	})
	broken, checked, err := checkDoc("doc.md")
	if err != nil || broken != 0 {
		t.Fatalf("broken=%d err=%v; want clean", broken, err)
	}
	if checked != 4 { // three anchors + one relative link; plain path and external skipped
		t.Fatalf("checked=%d; want 4", checked)
	}
}

func TestBrokenReferences(t *testing.T) {
	writeTree(t, map[string]string{
		"pkg/some.go": someGo,
		"doc.md": "Missing file `pkg/gone.go` (`Frob`).\n" +
			"Renamed symbol `pkg/some.go` (`Frobnicate`).\n" +
			"Method on the wrong type `pkg/some.go` (`x.Run`).\n" +
			"Dead [link](nope.md).\n",
	})
	broken, checked, err := checkDoc("doc.md")
	if err != nil {
		t.Fatal(err)
	}
	if broken != 4 || checked != 4 {
		t.Fatalf("broken=%d checked=%d; want 4 and 4", broken, checked)
	}
}

// TestLineAnchorsAreReported: the retired `path.go:NN` form is a
// broken reference, with or without a symbol, so a line number cannot
// creep back into the docs.
func TestLineAnchorsAreReported(t *testing.T) {
	writeTree(t, map[string]string{
		"pkg/some.go": someGo,
		"doc.md":      "`pkg/some.go:6` (`Frob`) and `pkg/some.go:1`.\n",
	})
	broken, _, err := checkDoc("doc.md")
	if err != nil || broken != 2 {
		t.Fatalf("broken=%d err=%v; want both line anchors reported", broken, err)
	}
}

func TestFragmentsAndBareNamesSkipped(t *testing.T) {
	writeTree(t, map[string]string{
		"doc.md": "A [section link](#enforcement) and prose `file.go` (`F`) with no path.\n",
	})
	broken, checked, err := checkDoc("doc.md")
	if err != nil || broken != 0 {
		t.Fatalf("broken=%d err=%v; want clean", broken, err)
	}
	if checked != 0 {
		t.Fatalf("checked=%d; fragment links and slashless anchors should be skipped", checked)
	}
}

// TestCommaFormAnchors: a symbol written beside its anchor inside one
// pair of parentheses is checked as one written after it: a method as
// Type.Method, a field as Type.Field, a top-level name as pkg.Name. A
// prose list of files, with no parenthesis before it, is not an anchor.
func TestCommaFormAnchors(t *testing.T) {
	writeTree(t, map[string]string{
		"pkg/some.go": someGo,
		"doc.md": "Fine (`pkg/some.go`, `Frob`), (`pkg/some.go`, `p.Frob`), (`pkg/some.go`, `T.f`).\n" +
			"Stale (`pkg/some.go`, `Frab`) and (`pkg/some.go`, `T.g`).\n" +
			"A list: `pkg/some.go`, `pkg/other.go`.\n",
	})
	broken, checked, err := checkDoc("doc.md")
	if err != nil {
		t.Fatal(err)
	}
	if broken != 2 || checked != 5 {
		t.Fatalf("broken=%d checked=%d; want 2 and 5", broken, checked)
	}
}

// TestCodeSpansAreNotLinks: a bracket and parenthesis inside an inline
// code span, on one line or across two, is code, not a link; a link
// outside a span is still checked.
func TestCodeSpansAreNotLinks(t *testing.T) {
	writeTree(t, map[string]string{
		"doc.md": "Code `σ[a=1]((R(a,b) × T(c))` and ``x[y](z)``, and `σ[a=c]((R(a,b) ×\n" +
			"T(c))` across lines.\n" +
			"A lone ` backtick, then a dead [link](nope.md).\n",
	})
	broken, checked, err := checkDoc("doc.md")
	if err != nil {
		t.Fatal(err)
	}
	if broken != 1 || checked != 1 {
		t.Fatalf("broken=%d checked=%d; want 1 and 1 (only the dead link)", broken, checked)
	}
}
