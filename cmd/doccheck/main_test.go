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
	fileCache = map[string][]string{}
}

const someGo = "package p\n\nvar x = 1\n\n// Frob frobs.\nfunc Frob() {}\n"

func TestAnchorsResolve(t *testing.T) {
	writeTree(t, map[string]string{
		"pkg/some.go": someGo,
		"doc.md": "See `pkg/some.go:6` (`Frob`) and plain `pkg/some.go:1`.\n" +
			"Also a [link](pkg/some.go) and an [external](https://example.com/x:9).\n",
	})
	broken, checked, err := checkDoc("doc.md")
	if err != nil || broken != 0 {
		t.Fatalf("broken=%d err=%v; want clean", broken, err)
	}
	if checked != 3 { // two anchors + one relative link; external skipped
		t.Fatalf("checked=%d; want 3", checked)
	}
}

func TestBrokenReferences(t *testing.T) {
	writeTree(t, map[string]string{
		"pkg/some.go": someGo,
		"doc.md": "Missing file `pkg/gone.go:3`.\n" +
			"Line out of range `pkg/some.go:99`.\n" +
			"Symbol drifted `pkg/some.go:1` (`Frob`).\n" + // Frob is on lines 5-6, > ±2 from 1
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

func TestSymbolSlack(t *testing.T) {
	writeTree(t, map[string]string{
		"pkg/some.go": someGo,
		// Frob's doc comment is on line 5; ±2 slack makes an anchor at
		// line 4 (the blank separator) valid.
		"doc.md": "`pkg/some.go:4` (`Frob`)\n",
	})
	broken, _, err := checkDoc("doc.md")
	if err != nil || broken != 0 {
		t.Fatalf("broken=%d err=%v; anchor within slack should pass", broken, err)
	}
}

func TestFragmentsAndBareNamesSkipped(t *testing.T) {
	writeTree(t, map[string]string{
		"doc.md": "A [section link](#enforcement) and prose `file.go:12` with no path.\n",
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
// pair of parentheses is checked as one written after it, a dotted
// Type.Method by its last part.
func TestCommaFormAnchors(t *testing.T) {
	writeTree(t, map[string]string{
		"pkg/some.go": someGo,
		"doc.md": "Fine (`pkg/some.go:6`, `Frob`) and (`pkg/some.go:5`, `p.Frob`).\n" +
			"Stale (`pkg/some.go:1`, `Frob`) and (`pkg/some.go:2`, `p.Frob`).\n",
	})
	broken, checked, err := checkDoc("doc.md")
	if err != nil {
		t.Fatal(err)
	}
	if broken != 2 || checked != 4 { // Frob is on lines 5-6, > ±2 from 1 and 2
		t.Fatalf("broken=%d checked=%d; want 2 and 4", broken, checked)
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
