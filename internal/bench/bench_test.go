package bench

import (
	"fmt"
	"strings"
	"testing"
)

func run(t *testing.T, f func() (*Report, error)) *Report {
	t.Helper()
	r, err := f()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) == 0 || len(r.Header) == 0 {
		t.Fatalf("report %s is empty", r.ID)
	}
	return r
}

func TestE1Shape(t *testing.T) {
	r := run(t, E1StateBugJoin)
	// Row 0: pre-state correct; row 1: naive wrong; row 2: ours correct.
	if r.Rows[0][3] != "yes" || r.Rows[2][3] != "yes" {
		t.Fatalf("correct methods flagged wrong:\n%s", r)
	}
	if r.Rows[1][3] != "NO" {
		t.Fatalf("state bug not reproduced:\n%s", r)
	}
	if r.Rows[1][2] != "4" || r.Rows[2][2] != "2" {
		t.Fatalf("multiplicities do not match the paper (naive=4, correct=2):\n%s", r)
	}
}

func TestE2Shape(t *testing.T) {
	r := run(t, E2StateBugDiff)
	if r.Rows[0][3] != "yes" || r.Rows[2][3] != "yes" || r.Rows[1][3] != "NO" {
		t.Fatalf("E2 shape wrong:\n%s", r)
	}
	if !strings.Contains(r.Rows[1][2], `"b"`) {
		t.Fatalf("naive refresh should retain the stale [b]:\n%s", r)
	}
}

func TestE6Shape(t *testing.T) {
	r := run(t, E6RestrictedClass)
	// Restricted class: 100% agreement.
	if r.Rows[0][3] != "0" {
		t.Fatalf("restricted class disagreed:\n%s", r)
	}
	// Relaxations: at least one disagreement each.
	if r.Rows[1][3] == "0" || r.Rows[2][3] == "0" {
		t.Fatalf("relaxed classes never disagreed — Remark 1 shape missing:\n%s", r)
	}
}

func TestE3Runs(t *testing.T) {
	r := run(t, E3Overhead)
	if len(r.Rows) != 4 || len(r.Rows[0]) != 6 {
		t.Fatalf("E3 shape wrong:\n%s", r)
	}
}

func TestE4Runs(t *testing.T) {
	r := run(t, E4Downtime)
	if len(r.Rows) != 3 {
		t.Fatalf("E4 shape wrong:\n%s", r)
	}
}

func TestE5Runs(t *testing.T) {
	r := run(t, E5PropagationSweep)
	if len(r.Rows) != 5 {
		t.Fatalf("E5 shape wrong:\n%s", r)
	}
}

func TestE7ChurnShape(t *testing.T) {
	r := run(t, E7Minimality)
	if len(r.Rows) != 2 {
		t.Fatalf("E7 shape wrong:\n%s", r)
	}
	// Strong minimality must shrink the differential tables under churn.
	weak, strong := r.Rows[0][1], r.Rows[1][1]
	if weak == strong {
		t.Fatalf("strong minimality had no effect:\n%s", r)
	}
}

func TestE8Runs(t *testing.T) {
	r := run(t, E8IncrVsRecompute)
	if len(r.Rows) != 4 {
		t.Fatalf("E8 shape wrong:\n%s", r)
	}
	// At the smallest fraction, incremental must win.
	if r.Rows[0][4] != "incremental" {
		t.Logf("WARNING: incremental did not win at 0.1%% updates:\n%s", r)
	}
}

func TestE9Runs(t *testing.T) {
	r := run(t, E9Batching)
	if len(r.Rows) != 3 {
		t.Fatalf("E9 shape wrong:\n%s", r)
	}
}

func TestE10Runs(t *testing.T) {
	r := run(t, E10SharedLog)
	if len(r.Rows) != 2 {
		t.Fatalf("E10 shape wrong:\n%s", r)
	}
}

func TestE11Runs(t *testing.T) {
	r := run(t, E11ReaderBlocking)
	if len(r.Rows) != 2 {
		t.Fatalf("E11 shape wrong:\n%s", r)
	}
}

func TestE12Shape(t *testing.T) {
	r := run(t, E12SelfMaintainability)
	// SP views: 100% agreement and 100% base-free differentials.
	if r.Rows[0][2] != r.Rows[0][1] || r.Rows[0][3] != r.Rows[0][1] {
		t.Fatalf("self-maintainable class not clean:\n%s", r)
	}
	// General views: strictly less agreement and zero base-free.
	if r.Rows[1][2] == r.Rows[1][1] {
		t.Fatalf("general views never disagreed:\n%s", r)
	}
	// A handful of general views can be coincidentally base-free (e.g.
	// literal-heavy shapes); the overwhelming majority must not be.
	if r.Rows[1][3] == r.Rows[1][1] {
		t.Fatalf("general views all base-free — class separation lost:\n%s", r)
	}
}

func TestE13Shape(t *testing.T) {
	r := run(t, E13RelevantUpdates)
	if len(r.Rows) != 2 {
		t.Fatalf("E13 shape wrong:\n%s", r)
	}
	// Filtered logs must be strictly smaller.
	var unf, fil int
	fmt.Sscan(r.Rows[0][1], &unf)
	fmt.Sscan(r.Rows[1][1], &fil)
	if fil >= unf {
		t.Fatalf("filtering did not shrink the log (%d vs %d):\n%s", fil, unf, r)
	}
}

func TestE14Runs(t *testing.T) {
	r := run(t, E14FreshQueries)
	if len(r.Rows) != 4 {
		t.Fatalf("E14 shape wrong:\n%s", r)
	}
}

func TestRetailDayRuns(t *testing.T) {
	r := run(t, RetailDay)
	if len(r.Rows) != 1 || len(r.Rows[0]) != 2 {
		t.Fatalf("day shape wrong:\n%s", r)
	}
	if r.Rows[0][0] == "0" {
		t.Fatalf("the day propagated nothing:\n%s", r)
	}
}

func TestAllRegistered(t *testing.T) {
	exps := All()
	if len(exps) != 15 {
		t.Fatalf("expected 15 experiments (e1..e14 and day), got %d", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if seen[e.ID] {
			t.Fatalf("duplicate experiment %s", e.ID)
		}
		seen[e.ID] = true
		if e.Run == nil {
			t.Fatalf("experiment %s has no runner", e.ID)
		}
	}
}

func TestReportString(t *testing.T) {
	r := &Report{
		ID: "X", Title: "demo", Notes: "n",
		Header: []string{"col", "c2"},
		Rows:   [][]string{{"a", "bbbb"}},
	}
	s := r.String()
	for _, want := range []string{"X — demo", "col", "bbbb", "note: n", "---"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String missing %q:\n%s", want, s)
		}
	}
}
