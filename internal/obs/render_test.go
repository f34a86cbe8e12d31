package obs

import (
	"strings"
	"testing"
)

// populate registers metrics in a scrambled order; Snapshot must sort
// them regardless.
func populate(r *Registry) {
	r.Histogram("view_downtime_ns", "hv").Observe(1500)
	r.Counter("log_append_tuples", "zeta").Add(7)
	r.Counter("log_append_tuples", "alpha").Add(3)
	r.Gauge("log_size_tuples", "hv").Set(42)
	r.Histogram("view_downtime_ns", "av").Observe(900)
	r.Counter("snapshot_save_bytes", "").Add(10)
	// Two-part "view/phase" labels, registered out of order.
	r.Counter("phase_alloc_bytes", "hv/refresh").Add(100)
	r.Counter("phase_alloc_bytes", "hv/makesafe").Add(200)
	r.Counter("phase_alloc_bytes", "av/propagate").Add(300)
	r.Histogram("compiled_eval_ns", "hv").Observe(5)
	r.Histogram("compiled_eval_ns", "av").Observe(4)
}

func TestRenderStableOrdering(t *testing.T) {
	r := NewRegistry()
	populate(r)
	out := r.Snapshot().String()

	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2+11 {
		t.Fatalf("got %d lines, want header+rule+11 rows:\n%s", len(lines), out)
	}
	// Rows must be sorted by (family, label) — the registry's map order
	// and the registration order must not leak through.
	wantOrder := []string{
		"compiled_eval_ns{av}",
		"compiled_eval_ns{hv}",
		"log_append_tuples{alpha}",
		"log_append_tuples{zeta}",
		"log_size_tuples{hv}",
		"phase_alloc_bytes{av/propagate}",
		"phase_alloc_bytes{hv/makesafe}",
		"phase_alloc_bytes{hv/refresh}",
		"snapshot_save_bytes",
		"view_downtime_ns{av}",
		"view_downtime_ns{hv}",
	}
	for i, want := range wantOrder {
		row := lines[2+i]
		if !strings.HasPrefix(row, want) {
			t.Errorf("row %d = %q, want prefix %q", i, row, want)
		}
	}

	// Stability: a registry populated the same way renders byte-for-byte
	// identically, and re-rendering the same registry does too.
	r2 := NewRegistry()
	populate(r2)
	if out2 := r2.Snapshot().String(); out2 != out {
		t.Errorf("renders differ across identically populated registries:\n%s\nvs:\n%s", out, out2)
	}
	if again := r.Snapshot().String(); again != out {
		t.Errorf("re-render differs:\n%s\nvs:\n%s", out, again)
	}
}

func TestSnapshotFilter(t *testing.T) {
	r := NewRegistry()
	populate(r)
	snap := r.Snapshot()

	got := snap.Filter("log_")
	if len(got.Metrics) != 3 {
		t.Fatalf("Filter(log_) kept %d metrics, want 3", len(got.Metrics))
	}
	for _, m := range got.Metrics {
		if !strings.HasPrefix(m.Name, "log_") {
			t.Errorf("Filter(log_) kept %q", m.Name)
		}
	}
	if got := snap.Filter("nope"); len(got.Metrics) != 0 {
		t.Errorf("Filter(nope) kept %d metrics, want 0", len(got.Metrics))
	}
	if got := snap.Filter(""); len(got.Metrics) != len(snap.Metrics) {
		t.Errorf("Filter(\"\") dropped metrics: %d vs %d", len(got.Metrics), len(snap.Metrics))
	}
}
