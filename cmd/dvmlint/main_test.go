package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dvm/internal/lint"
)

// chdir moves the process into dir for the duration of the test.
// (os.Chdir rather than t.Chdir: the module's language level predates
// the latter.)
func chdir(t *testing.T, dir string) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(old) })
}

// writeModule lays out a throwaway single-package module.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module tmpmod\n\ngo 1.22\n"
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestExitCodeClean: a module with nothing to report exits 0.
func TestExitCodeClean(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"clean.go": "package tmpmod\n\nfunc F() int { return 1 }\n",
	})
	chdir(t, dir)
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 0 {
		t.Fatalf("exit = %d (stderr %q); want 0", code, errb.String())
	}
	if out.Len() != 0 {
		t.Fatalf("clean run printed findings: %q", out.String())
	}
}

// racyModule lays out a module whose one finding is
// atomic-discipline's: a field added to atomically and read plainly.
func racyModule(t *testing.T) string {
	return writeModule(t, map[string]string{
		"racy.go": "package tmpmod\n\nimport \"sync/atomic\"\n\ntype C struct{ n int64 }\n\n" +
			"func (c *C) Inc() { atomic.AddInt64(&c.n, 1) }\n\nfunc (c *C) Peek() int64 { return c.n }\n",
	})
}

// TestExitCodeFindings: surviving findings exit 1, and -json renders
// them as a parseable array.
func TestExitCodeFindings(t *testing.T) {
	dir := racyModule(t)
	chdir(t, dir)
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 1 {
		t.Fatalf("exit = %d (stdout %q, stderr %q); want 1", code, out.String(), errb.String())
	}

	out.Reset()
	errb.Reset()
	if code := run([]string{"-json"}, &out, &errb); code != 1 {
		t.Fatalf("-json exit = %d; want 1", code)
	}
	var findings []map[string]any
	if err := json.Unmarshal(out.Bytes(), &findings); err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, out.String())
	}
	if len(findings) == 0 {
		t.Fatal("-json output is empty; want the atomic-discipline finding")
	}
	if findings[0]["check"] != "atomic-discipline" {
		t.Fatalf("finding check = %v; want atomic-discipline", findings[0]["check"])
	}
}

// TestUnknownCheckSuppressionWarns: a //dvmlint:ignore naming a check
// no analyzer recognizes is advisory — a stderr warning, exit 0, and
// absent from -json — so renaming an analyzer never breaks builds that
// carried suppressions for the old name.
func TestUnknownCheckSuppressionWarns(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"clean.go": "package tmpmod\n\n//dvmlint:ignore no-such-check left over from a renamed analyzer\nfunc F() int { return 1 }\n",
	})
	chdir(t, dir)
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 0 {
		t.Fatalf("exit = %d (stdout %q, stderr %q); want 0: unknown-check suppressions warn, not error", code, out.String(), errb.String())
	}
	if out.Len() != 0 {
		t.Fatalf("warning leaked to stdout: %q", out.String())
	}
	if !strings.Contains(errb.String(), "warning:") || !strings.Contains(errb.String(), `unknown check "no-such-check"`) {
		t.Fatalf("stderr = %q; want an unknown-check warning", errb.String())
	}

	out.Reset()
	errb.Reset()
	if code := run([]string{"-json"}, &out, &errb); code != 0 {
		t.Fatalf("-json exit = %d; want 0", code)
	}
	var findings []map[string]any
	if err := json.Unmarshal(out.Bytes(), &findings); err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, out.String())
	}
	if len(findings) != 0 {
		t.Fatalf("-json carries the warning: %v; warnings are stderr-only", findings)
	}
}

// TestExitCodeLoadFailure: a package that fails to parse or type-check
// exits 2, distinct from lint findings, so CI never mistakes a broken
// build for a clean one.
func TestExitCodeLoadFailure(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"broken.go": "package tmpmod\n\nfunc F( {\n",
	})
	chdir(t, dir)
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 2 {
		t.Fatalf("exit = %d; want 2 for a load failure", code)
	}
	if errb.Len() == 0 {
		t.Fatal("load failure reported nothing on stderr")
	}
}

// TestExitCodeBadFlags: unknown checks, alone or beside a known one,
// and unparseable flags exit 2.
func TestExitCodeBadFlags(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-checks", "no-such-check"}, &out, &errb); code != 2 {
		t.Fatalf("unknown check exit = %d; want 2", code)
	}
	if code := run([]string{"-checks=single-writer,no-such-check"}, &out, &errb); code != 2 {
		t.Fatalf("known and unknown check exit = %d; want 2", code)
	}
	if code := run([]string{"-no-such-flag"}, &out, &errb); code != 2 {
		t.Fatalf("bad flag exit = %d; want 2", code)
	}
}

// TestListChecks: -list prints one "name  doc" line per registered
// analyzer, runs nothing, and exits 0.
func TestListChecks(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("-list exit = %d (stderr %q); want 0", code, errb.String())
	}
	lines := strings.Count(strings.TrimRight(out.String(), "\n"), "\n") + 1
	if lines != len(lint.All()) {
		t.Fatalf("-list printed %d lines; want one per analyzer (%d)", lines, len(lint.All()))
	}
	for _, name := range []string{"atomic-discipline", "single-writer", "doc-comment"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output misses %q", name)
		}
	}
}

// TestCheckSelection: -checks narrows the run to the named analyzers —
// a module with only a mixed atomic access is clean under
// -checks=single-writer and dirty under -checks=atomic-discipline.
func TestCheckSelection(t *testing.T) {
	dir := racyModule(t)
	chdir(t, dir)
	var out, errb bytes.Buffer
	if code := run([]string{"-checks=single-writer"}, &out, &errb); code != 0 {
		t.Fatalf("-checks=single-writer exit = %d (stdout %q); want 0: the finding belongs to another analyzer", code, out.String())
	}
	out.Reset()
	errb.Reset()
	if code := run([]string{"-checks=atomic-discipline"}, &out, &errb); code != 1 {
		t.Fatalf("-checks=atomic-discipline exit = %d; want 1", code)
	}
	if !strings.Contains(out.String(), "[atomic-discipline]") {
		t.Fatalf("selected run output = %q; want the atomic-discipline finding", out.String())
	}
}

// TestDvmlintWallClock guards the tier-1 gate's usability: the full
// suite — interprocedural passes included — must finish over the whole
// module within a generous bound.
func TestDvmlintWallClock(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock guard skipped in -short mode")
	}
	chdir(t, filepath.Join("..", ".."))
	start := time.Now()
	code := run(nil, io.Discard, io.Discard)
	elapsed := time.Since(start)
	if code != 0 {
		t.Fatalf("dvmlint over the module exited %d; want 0", code)
	}
	// Loading and type-checking the module is most of a run (about 5 s
	// on 2 CPUs); the analyzers, run one after another, take about half
	// a second together. A full run measures single-digit seconds, so
	// 60s is generous.
	const bound = 60 * time.Second
	if elapsed > bound {
		t.Fatalf("dvmlint over the module took %s, over the %s bound; the interprocedural layer is too slow for the tier-1 gate", elapsed, bound)
	}
	t.Logf("full-suite run over the module: %s", elapsed)
}
