package dvm_test

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"dvm"
	"dvm/internal/obs"
)

// docFamilyRe extracts the metric family from one table row of the
// families table in docs/observability.md: "| `family_name` | ...".
var docFamilyRe = regexp.MustCompile("(?m)^\\| `([a-z0-9_]+)` \\|")

// documentedFamilies parses the family names out of the marked table
// in docs/observability.md.
func documentedFamilies(t *testing.T) map[string]bool {
	t.Helper()
	data, err := os.ReadFile("docs/observability.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	begin := strings.Index(text, "<!-- families:begin -->")
	end := strings.Index(text, "<!-- families:end -->")
	if begin < 0 || end < 0 || end < begin {
		t.Fatal("docs/observability.md: families:begin/end markers missing or out of order")
	}
	out := map[string]bool{}
	for _, m := range docFamilyRe.FindAllStringSubmatch(text[begin:end], -1) {
		out[m[1]] = true
	}
	if len(out) == 0 {
		t.Fatal("docs/observability.md: no family rows found between markers")
	}
	return out
}

// TestObservabilityDocsMatchRegistry runs a workload that touches every
// instrumented subsystem (transactions, maintenance, SQL, locks,
// snapshots), then asserts the metric families the registry emits and
// the families docs/observability.md documents are the same set — in
// both directions. Adding a metric without documenting it, or
// documenting one that no longer exists, fails here.
func TestObservabilityDocsMatchRegistry(t *testing.T) {
	// obs.Scrape adds the go_* families, read from the runtime.
	eng := dvm.NewEngine()
	script := `
CREATE TABLE sales (custId INT, itemNo INT, quantity INT, salesPrice FLOAT);
CREATE MATERIALIZED VIEW hv REFRESH DEFERRED COMBINED AS
SELECT s.custId, s.itemNo FROM sales s WHERE s.quantity != 0;
INSERT INTO sales VALUES (1, 10, 2, 9.99);
INSERT INTO sales VALUES (2, 11, 0, 5.00);
PROPAGATE hv;
PARTIAL REFRESH hv;
INSERT INTO sales VALUES (3, 12, 1, 7.50);
REFRESH hv;
SELECT * FROM hv;
`
	if _, err := eng.ExecScript(script); err != nil {
		t.Fatal(err)
	}

	// Snapshot save/load bytes live on the saving engine's registry and
	// the restored engine's registry respectively; union them.
	var buf bytes.Buffer
	if err := eng.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := dvm.LoadEngine(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	emitted := map[string]bool{}
	for _, fam := range obs.Scrape(eng.Manager().Obs()).Families() {
		emitted[fam] = true
	}
	for _, fam := range obs.Scrape(restored.Manager().Obs()).Families() {
		emitted[fam] = true
	}

	documented := documentedFamilies(t)
	for fam := range emitted {
		if !documented[fam] {
			t.Errorf("registry emits %q but docs/observability.md does not document it", fam)
		}
	}
	for fam := range documented {
		if !emitted[fam] {
			t.Errorf("docs/observability.md documents %q but the workload never emitted it", fam)
		}
	}

	// The Prometheus exposition of the same registry must pass the
	// strict format validator — this is the golden check for /metrics.
	var prom bytes.Buffer
	if err := obs.WriteProm(&prom, obs.Scrape(eng.Manager().Obs())); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateExposition(prom.Bytes()); err != nil {
		t.Errorf("exposition of the workload registry invalid: %v\n%s", err, prom.Bytes())
	}
}

// TestEngineStartsNoGoroutine checks that the engine owns no
// background work: building an engine, running a script, saving and
// restoring it and scraping both registries (the go_* families are read
// from the runtime) leave the goroutine count at its baseline, with no
// Close anywhere.
func TestEngineStartsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	eng := dvm.NewEngine()
	script := `
CREATE TABLE sales (custId INT, itemNo INT, quantity INT);
CREATE MATERIALIZED VIEW hv REFRESH DEFERRED COMBINED AS
SELECT s.custId, s.itemNo FROM sales s WHERE s.quantity != 0;
INSERT INTO sales VALUES (1, 10, 2);
PROPAGATE hv;
REFRESH hv;
`
	if _, err := eng.ExecScript(script); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := eng.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := dvm.LoadEngine(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []*dvm.Engine{eng, restored} {
		if len(obs.Scrape(e.Manager().Obs()).Family("go_goroutines")) != 1 {
			t.Fatal("Scrape has no go_goroutines")
		}
	}
	// A goroutine another test left behind may still be exiting; one
	// the engine started never would.
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after the engine's work, %d before", n, before)
	}
}

// TestNoGoStatementOutsideMain: the engine is the paper's one writer
// (Section 5), and TestEngineStartsNoGoroutine sees only the paths a
// script runs. A go statement in any non-test file outside package
// main (perf/ is its own module) would run its call holding none of
// its caller's locks, and return before that call is done. A command
// may still start one, for a server or a signal handler.
func TestNoGoStatementOutsideMain(t *testing.T) {
	fset := token.NewFileSet()
	goFiles(t, fset, parser.SkipObjectResolution, func(path string, f *ast.File) {
		if strings.HasSuffix(path, "_test.go") || strings.HasPrefix(path, "perf/") || f.Name.Name == "main" {
			return
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				t.Errorf("%s: go statement outside package main: the engine starts no goroutine", fset.Position(g.Pos()))
			}
			return true
		})
	})
}

// TestExportedNamesAreDocumented: every exported function, method on
// an exported type, type, const and var of the packages the docs
// describe carries a doc comment. A block's doc covers its specs, and
// a const or var may carry a trailing comment instead.
func TestExportedNamesAreDocumented(t *testing.T) {
	gated := map[string]bool{"internal/core": true, "internal/obs": true, "internal/obs/trace": true, "internal/txn": true}
	fset := token.NewFileSet()
	goFiles(t, fset, parser.ParseComments|parser.SkipObjectResolution, func(path string, f *ast.File) {
		if !gated[filepath.ToSlash(filepath.Dir(path))] || strings.HasSuffix(path, "_test.go") {
			return
		}
		undocumented := func(n *ast.Ident) {
			t.Errorf("%s: exported %s has no doc comment", fset.Position(n.Pos()), n.Name)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Name.IsExported() && d.Doc == nil && (d.Recv == nil || recvType(d).IsExported()) {
					undocumented(d.Name)
				}
			case *ast.GenDecl:
				if d.Doc != nil {
					continue
				}
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() && s.Doc == nil {
							undocumented(s.Name)
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() && s.Doc == nil && s.Comment == nil {
								undocumented(n)
							}
						}
					}
				}
			}
		}
	})
}

// recvType returns the name of a method's receiver type; the packages
// checked declare no generic type.
func recvType(d *ast.FuncDecl) *ast.Ident {
	x := d.Recv.List[0].Type
	if star, ok := x.(*ast.StarExpr); ok {
		x = star.X
	}
	return x.(*ast.Ident)
}

// TestPromHelpMatchesDocs pins the HELP text map (internal/obs/help.go)
// to the documented families table, both directions: every documented
// family has exposition HELP text and every HELP entry documents a
// family that exists in the table. This keeps /metrics HELP lines and
// docs/observability.md from drifting apart.
func TestPromHelpMatchesDocs(t *testing.T) {
	documented := documentedFamilies(t)
	helped := map[string]bool{}
	for _, fam := range obs.HelpFamilies() {
		helped[fam] = true
		if !documented[fam] {
			t.Errorf("help.go has HELP text for %q but docs/observability.md does not document it", fam)
		}
	}
	for fam := range documented {
		if !helped[fam] {
			t.Errorf("docs/observability.md documents %q but help.go has no HELP text for it", fam)
		}
	}
}
