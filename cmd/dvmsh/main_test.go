package main

import (
	"errors"
	"strings"
	"testing"

	"dvm/internal/sql"
)

// testEngine builds a traced engine with one Combined view and a bit
// of maintenance history.
func testEngine(t *testing.T) *sql.Engine {
	t.Helper()
	engine := sql.NewEngine(sql.WithTraceSpec("all"))
	if err := engine.Err(); err != nil {
		t.Fatal(err)
	}
	script := `
CREATE TABLE sales (id INT, amount INT);
CREATE MATERIALIZED VIEW big REFRESH DEFERRED COMBINED AS
  SELECT id, amount FROM sales WHERE amount > 100;
INSERT INTO sales VALUES (1, 500);
INSERT INTO sales VALUES (2, 50);
PROPAGATE big;
REFRESH big;
`
	if _, err := engine.ExecScript(script); err != nil {
		t.Fatal(err)
	}
	return engine
}

// failingFile is a snapshot file whose Write fails with writeErr and
// whose Close fails with closeErr, where they are set.
type failingFile struct {
	writeErr, closeErr error
	closed             bool
}

func (f *failingFile) Write(p []byte) (int, error) {
	if f.writeErr != nil {
		return 0, f.writeErr
	}
	return len(p), nil
}

func (f *failingFile) Close() error {
	f.closed = true
	return f.closeErr
}

// TestSaveReportsCloseError: -save reports a snapshot lost at Close as
// well as one lost at Write, and closes the file either way.
func TestSaveReportsCloseError(t *testing.T) {
	engine := testEngine(t)
	injected := errors.New("injected")
	for _, tc := range []struct {
		name string
		f    *failingFile
	}{
		{"close", &failingFile{closeErr: injected}},
		{"write", &failingFile{writeErr: injected}},
	} {
		if err := saveTo(engine, tc.f); !errors.Is(err, injected) {
			t.Errorf("%s fails: saveTo returned %v, want the injected error", tc.name, err)
		}
		if !tc.f.closed {
			t.Errorf("%s fails: the file was not closed", tc.name)
		}
	}
	if err := saveTo(engine, &failingFile{}); err != nil {
		t.Errorf("saveTo on a working file: %v", err)
	}
}

func TestStatsPrefixFilter(t *testing.T) {
	engine := testEngine(t)
	var buf strings.Builder
	newShell(engine).metaCommand(&buf, "\\stats lock_")
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) < 3 {
		t.Fatalf("\\stats lock_ printed no metric rows:\n%s", out)
	}
	// Every data row (after header + rule) must be from a lock_ family.
	for _, line := range lines[2:] {
		if !strings.HasPrefix(line, "lock_") {
			t.Errorf("unfiltered row %q in:\n%s", line, out)
		}
	}
	if strings.Contains(out, "view_downtime_ns") {
		t.Errorf("\\stats lock_ leaked other families:\n%s", out)
	}

	// Unfiltered output must contain families the filter removed.
	buf.Reset()
	newShell(engine).metaCommand(&buf, "\\stats")
	if !strings.Contains(buf.String(), "view_downtime_ns") {
		t.Errorf("unfiltered \\stats missing view_downtime_ns:\n%s", buf.String())
	}

	// A prefix matching nothing yields just the header.
	buf.Reset()
	newShell(engine).metaCommand(&buf, "\\stats no_such_family")
	if got := strings.Count(buf.String(), "\n"); got != 2 {
		t.Errorf("\\stats no_such_family printed %d lines, want 2 (header+rule):\n%s", got, buf.String())
	}
}

func TestStatsRate(t *testing.T) {
	engine := sql.NewEngine()
	if err := engine.Err(); err != nil {
		t.Fatal(err)
	}
	sh := newShell(engine) // baseline: empty registry
	script := `
CREATE TABLE sales (id INT, amount INT);
CREATE MATERIALIZED VIEW big REFRESH DEFERRED COMBINED AS
  SELECT id, amount FROM sales WHERE amount > 100;
INSERT INTO sales VALUES (1, 500);
PROPAGATE big;
REFRESH big;
`
	if _, err := engine.ExecScript(script); err != nil {
		t.Fatal(err)
	}

	var buf strings.Builder
	sh.metaCommand(&buf, "\\stats rate")
	out := buf.String()
	if !strings.HasPrefix(out, "rate over the last ") {
		t.Errorf("\\stats rate missing window header:\n%s", out)
	}
	for _, want := range []string{"propagate_ns", "refresh_ns", "/s"} {
		if !strings.Contains(out, want) {
			t.Errorf("\\stats rate missing %q:\n%s", want, out)
		}
	}

	// The baseline advanced: with no new work, nothing changed.
	buf.Reset()
	sh.metaCommand(&buf, "\\stats rate")
	if !strings.Contains(buf.String(), "no metric changed") {
		t.Errorf("idle second window should report no change:\n%s", buf.String())
	}

	// The prefix argument filters the rate view like plain \stats.
	if _, err := engine.ExecScript("INSERT INTO sales VALUES (2, 700);PROPAGATE big;"); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	sh.metaCommand(&buf, "\\stats rate propagate_")
	out = buf.String()
	if !strings.Contains(out, "propagate_ns") {
		t.Errorf("filtered rate view missing propagate_ns:\n%s", out)
	}
	if strings.Contains(out, "txn_exec_ns") {
		t.Errorf("\\stats rate propagate_ leaked other families:\n%s", out)
	}
}

func TestTraceCommand(t *testing.T) {
	engine := testEngine(t)
	var buf strings.Builder
	newShell(engine).metaCommand(&buf, "\\trace 3")
	out := buf.String()
	if !strings.Contains(out, "sql.stmt") {
		t.Errorf("\\trace output missing sql.stmt spans:\n%s", out)
	}
	if !strings.Contains(out, "core.refresh.apply") {
		t.Errorf("\\trace output missing the refresh apply span:\n%s", out)
	}
	if !strings.Contains(out, "(exclusive)") {
		t.Errorf("\\trace output missing the exclusive marker:\n%s", out)
	}
	// Count trace headers: exactly 3 were requested.
	if got := strings.Count(out, "\n#") + boolToInt(strings.HasPrefix(out, "#")); got != 3 {
		t.Errorf("\\trace 3 rendered %d traces, want 3:\n%s", got, out)
	}

	// Bad argument prints usage, not a panic.
	buf.Reset()
	newShell(engine).metaCommand(&buf, "\\trace zero")
	if !strings.Contains(buf.String(), "usage") {
		t.Errorf("\\trace zero: got %q, want usage message", buf.String())
	}
}

func TestTraceCommandDisabledTracer(t *testing.T) {
	engine := sql.NewEngine(sql.WithTraceSpec("off"))
	if err := engine.Err(); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	newShell(engine).metaCommand(&buf, "\\trace")
	if !strings.Contains(buf.String(), "no traces captured") {
		t.Errorf("disabled tracer: got %q", buf.String())
	}
}

func TestUnknownMetaCommand(t *testing.T) {
	engine := sql.NewEngine()
	var buf strings.Builder
	newShell(engine).metaCommand(&buf, "\\bogus")
	if !strings.Contains(buf.String(), "unknown command") {
		t.Errorf("got %q, want unknown-command message", buf.String())
	}
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
