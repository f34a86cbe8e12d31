package obs

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"
)

// promSnapshot builds a registry exercising every label shape the
// exposition splitter handles.
func promSnapshot() Snapshot {
	r := NewRegistry()
	r.Counter("log_append_tuples", "hv").Add(42)
	r.Counter("phase_alloc_bytes", "hv/propagate").Add(1000)
	r.Counter("snapshot_save_bytes", "").Add(7)
	r.Gauge("diff_size_tuples", "hv").Set(5)
	r.Histogram("lock_write_hold_ns", "mv_hv").Observe(100)
	r.Histogram("sql_stmt_ns", "select").Observe(2500)
	h := r.Histogram("view_downtime_ns", "hv")
	h.Observe(3)
	h.Observe(900)
	h.Observe(70000)
	return r.Snapshot()
}

func TestWritePromRendersAndValidates(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteProm(&buf, promSnapshot()); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP dvm_log_append_tuples ",
		"# TYPE dvm_log_append_tuples counter",
		`dvm_log_append_tuples{view="hv"} 42`,
		`dvm_phase_alloc_bytes{view="hv",phase="propagate"} 1000`,
		"dvm_snapshot_save_bytes 7",
		`dvm_diff_size_tuples{view="hv"} 5`,
		`dvm_lock_write_hold_ns_bucket{table="mv_hv",le="127"} 1`,
		`dvm_sql_stmt_ns_count{kind="select"} 1`,
		`dvm_view_downtime_ns_bucket{view="hv",le="+Inf"} 3`,
		`dvm_view_downtime_ns_sum{view="hv"} 70903`,
		`dvm_view_downtime_ns_count{view="hv"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	if err := ValidateExposition(buf.Bytes()); err != nil {
		t.Fatalf("ValidateExposition: %v\n%s", err, out)
	}
}

// TestWritePromBucketsCountAtMostLe checks every cumulative _bucket
// line against the raw observations: Prometheus reads le as ≤, so the
// line must count exactly the values ≤ le, at a bucket's edges (0, 1,
// 1023/1024/1025) too.
func TestWritePromBucketsCountAtMostLe(t *testing.T) {
	obsv := []int64{0, 1, 2, 3, 4, 1000, 1023, 1024, 1025, 70000}
	r := NewRegistry()
	h := r.Histogram("view_downtime_ns", "hv")
	for _, v := range obsv {
		h.Observe(v)
	}
	var buf bytes.Buffer
	if err := WriteProm(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	const prefix = `dvm_view_downtime_ns_bucket{view="hv",le="`
	lines := 0
	for _, line := range strings.Split(buf.String(), "\n") {
		rest, ok := strings.CutPrefix(line, prefix)
		if !ok {
			continue
		}
		lines++
		le, got, ok := strings.Cut(rest, `"} `)
		if !ok {
			t.Fatalf("malformed bucket line %q", line)
		}
		bound := int64(math.MaxInt64)
		if le != "+Inf" {
			var err error
			if bound, err = strconv.ParseInt(le, 10, 64); err != nil {
				t.Fatalf("le in %q: %v", line, err)
			}
		}
		want := 0
		for _, v := range obsv {
			if v <= bound {
				want++
			}
		}
		if got != strconv.Itoa(want) {
			t.Errorf("%s: count %s, but %d observations are ≤ %s", line, got, want, le)
		}
	}
	if lines < 2 {
		t.Fatalf("only %d _bucket lines in\n%s", lines, buf.String())
	}
}

func TestWritePromDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	s := promSnapshot()
	if err := WriteProm(&a, s); err != nil {
		t.Fatal(err)
	}
	if err := WriteProm(&b, s); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("WriteProm output is not deterministic")
	}
}

func TestValidateExpositionRejects(t *testing.T) {
	cases := map[string]string{
		"sample before HELP/TYPE": "dvm_x 1\n",
		"bad metric name":         "# HELP dvm-x h\n# TYPE dvm-x counter\ndvm-x 1\n",
		"bad TYPE":                "# HELP dvm_x h\n# TYPE dvm_x countr\ndvm_x 1\n",
		"bad label name":          "# HELP dvm_x h\n# TYPE dvm_x counter\ndvm_x{0bad=\"v\"} 1\n",
		"bad value":               "# HELP dvm_x h\n# TYPE dvm_x counter\ndvm_x one\n",
		"help after samples":      "# HELP dvm_x h\n# TYPE dvm_x counter\ndvm_x 1\n# HELP dvm_x again\n",
		"split family block":      "# HELP dvm_x h\n# TYPE dvm_x counter\ndvm_x 1\n# HELP dvm_y h\n# TYPE dvm_y counter\ndvm_y 1\n# HELP dvm_x h\n",
		"le not increasing": "# HELP dvm_h h\n# TYPE dvm_h histogram\n" +
			"dvm_h_bucket{le=\"2\"} 1\ndvm_h_bucket{le=\"1\"} 2\ndvm_h_bucket{le=\"+Inf\"} 2\ndvm_h_sum 3\ndvm_h_count 2\n",
		"cumulative count decreases": "# HELP dvm_h h\n# TYPE dvm_h histogram\n" +
			"dvm_h_bucket{le=\"1\"} 2\ndvm_h_bucket{le=\"2\"} 1\ndvm_h_bucket{le=\"+Inf\"} 2\ndvm_h_sum 3\ndvm_h_count 2\n",
		"missing +Inf": "# HELP dvm_h h\n# TYPE dvm_h histogram\n" +
			"dvm_h_bucket{le=\"1\"} 2\ndvm_h_sum 3\ndvm_h_count 2\n",
		"count != +Inf": "# HELP dvm_h h\n# TYPE dvm_h histogram\n" +
			"dvm_h_bucket{le=\"+Inf\"} 2\ndvm_h_sum 3\ndvm_h_count 5\n",
	}
	for name, in := range cases {
		if err := ValidateExposition([]byte(in)); err == nil {
			t.Errorf("%s: validator accepted invalid exposition:\n%s", name, in)
		}
	}
}

// TestValidateExpositionNamesTheFirstFamily: of two malformed
// families, the validator names the one first by name, on every call,
// whatever order the input gives them in.
func TestValidateExpositionNamesTheFirstFamily(t *testing.T) {
	in := ""
	for _, fam := range []string{"b_ns", "a_ns"} {
		in += "# HELP " + fam + " h\n# TYPE " + fam + " histogram\n" +
			fam + "_bucket{le=\"1\"} 2\n" + fam + "_sum 3\n" + fam + "_count 2\n"
	}
	for i := 0; i < 64; i++ {
		err := ValidateExposition([]byte(in))
		if err == nil || !strings.Contains(err.Error(), "family a_ns ") {
			t.Fatalf("call %d: ValidateExposition = %v, want the missing +Inf of a_ns", i, err)
		}
	}
}

func TestValidateExpositionAcceptsEscapes(t *testing.T) {
	in := "# HELP dvm_x a help with \\\\ and \\n escapes\n# TYPE dvm_x gauge\n" +
		"dvm_x{view=\"a\\\"b\\\\c\\nd\"} 3\n"
	if err := ValidateExposition([]byte(in)); err != nil {
		t.Fatalf("validator rejected valid escapes: %v", err)
	}
}

func TestObserveN(t *testing.T) {
	var h Histogram
	h.ObserveN(100, 3)
	h.ObserveN(-5, 2) // clamps to zero
	h.ObserveN(7, 0)  // no-op
	if got := h.Count(); got != 5 {
		t.Fatalf("Count = %d, want 5", got)
	}
	if got := h.Sum(); got != 300 {
		t.Fatalf("Sum = %d, want 300", got)
	}
	if got := h.Max(); got != 100 {
		t.Fatalf("Max = %d, want 100", got)
	}
}

func TestRateString(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("propagate_tuples", "hv")
	g := r.Gauge("log_size_tuples", "hv")
	h := r.Histogram("propagate_ns", "hv")
	c.Add(10)
	g.Set(4)
	h.Observe(1000)
	prev := r.Snapshot()
	c.Add(30)
	g.Set(9)
	h.Observe(3000)
	cur := r.Snapshot()
	out := RateString(prev, cur, 2*time.Second)
	for _, want := range []string{
		"propagate_tuples{hv}", "15.0/s", // (40-10)/2s
		"log_size_tuples{hv}", "(+5)",
		"propagate_ns{hv}", "0.5/s", // one new observation over 2s
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rate view missing %q:\n%s", want, out)
		}
	}
	if out := RateString(cur, cur, time.Second); !strings.Contains(out, "no metric changed") {
		t.Errorf("identical snapshots should render the empty note, got:\n%s", out)
	}
}
