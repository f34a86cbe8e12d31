package dvm_test

import (
	"bytes"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"dvm"
	"dvm/internal/obs/trace"
)

// docSpanRe extracts the span name from one row of the span table in
// docs/observability.md: "| `core.refresh` | ...".
var docSpanRe = regexp.MustCompile("(?m)^\\| `([a-z0-9._]+)` \\|")

// documentedSpans parses the span names out of the marked table in
// docs/observability.md.
func documentedSpans(t *testing.T) map[string]bool {
	t.Helper()
	data, err := os.ReadFile("docs/observability.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	begin := strings.Index(text, "<!-- spans:begin -->")
	end := strings.Index(text, "<!-- spans:end -->")
	if begin < 0 || end < 0 || end < begin {
		t.Fatal("docs/observability.md: spans:begin/end markers missing or out of order")
	}
	out := map[string]bool{}
	for _, m := range docSpanRe.FindAllStringSubmatch(text[begin:end], -1) {
		out[m[1]] = true
	}
	if len(out) == 0 {
		t.Fatal("docs/observability.md: no span rows found between markers")
	}
	return out
}

// collectSpanNames walks every captured trace tree of a tracer into
// the accumulator set.
func collectSpanNames(tr *trace.Tracer, into map[string]bool) {
	var walk func(s *trace.Span)
	walk = func(s *trace.Span) {
		into[s.Name] = true
		for _, c := range s.Children {
			walk(c)
		}
	}
	for _, t := range tr.Last(tr.Len()) {
		walk(t.Root)
	}
}

// TestTraceDocsMatchRuntime enforces the span-name registry three
// ways: the constant table in internal/obs/trace/names.go, the span
// table in docs/observability.md, and the names actually emitted by an
// end-to-end retail run (SQL statements, every maintenance transaction
// kind, a view read, and a snapshot save/load round trip) must all be
// identical sets. A span emitted under an unregistered name, a
// registered name nothing emits, or an undocumented one fails here.
func TestTraceDocsMatchRuntime(t *testing.T) {
	eng := dvm.NewEngine(dvm.WithTraceSpec("all"))
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}
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
RECOMPUTE hv;
SELECT * FROM hv;
`
	if _, err := eng.ExecScript(script); err != nil {
		t.Fatal(err)
	}
	// core.query is the Go-API read path (SQL SELECTs lock inside
	// their statement span instead).
	if _, err := eng.Manager().Query("hv"); err != nil {
		t.Fatal(err)
	}

	// Save spans land on the saving engine's tracer; load spans on the
	// restored engine's. Union them.
	var buf bytes.Buffer
	if err := eng.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := dvm.LoadEngine(bytes.NewReader(buf.Bytes()), dvm.WithTraceSpec("all"))
	if err != nil {
		t.Fatal(err)
	}

	emitted := map[string]bool{}
	collectSpanNames(eng.Manager().Tracer(), emitted)
	collectSpanNames(restored.Manager().Tracer(), emitted)

	registered := map[string]bool{}
	for _, n := range trace.Names() {
		registered[n] = true
	}
	documented := documentedSpans(t)

	for _, pair := range []struct {
		aName, bName string
		a, b         map[string]bool
	}{
		{"runtime", "registry (trace.Names)", emitted, registered},
		{"registry (trace.Names)", "docs/observability.md", registered, documented},
		{"docs/observability.md", "runtime", documented, emitted},
	} {
		for n := range pair.a {
			if !pair.b[n] {
				t.Errorf("span %q present in %s but missing from %s", n, pair.aName, pair.bName)
			}
		}
	}
	if t.Failed() {
		var names []string
		for n := range emitted {
			names = append(names, n)
		}
		sort.Strings(names)
		t.Logf("runtime emitted: %s", strings.Join(names, ", "))
	}
}
