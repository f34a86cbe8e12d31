package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
)

// TestScrapeReadsTheRuntime checks the scrape seam: Scrape adds the
// five go_* families with their documented kinds to the registry's own
// metrics, in (Name, Label) order, and its exposition validates; the
// GC counter grows across runtime.GC and the pause histogram's count
// never falls between scrapes; the registry's Snapshot has no go_*
// family.
func TestScrapeReadsTheRuntime(t *testing.T) {
	r := NewRegistry()
	r.Counter("txn_total", "").Add(1)
	first := Scrape(r)
	for name, kind := range map[string]string{
		"go_goroutines":       "gauge",
		"go_heap_live_bytes":  "gauge",
		"go_gc_cycles":        "counter",
		"go_gc_pause_ns":      "histogram",
		"go_sched_latency_ns": "histogram",
	} {
		if m, ok := first.Get(name, ""); !ok || m.Kind != kind {
			t.Errorf("Scrape: %s = %+v (present %v), want kind %s", name, m, ok, kind)
		}
	}
	if m, _ := first.Get("go_goroutines", ""); m.Value < 1 {
		t.Errorf("go_goroutines = %d, want >= 1", m.Value)
	}
	if m, _ := first.Get("go_heap_live_bytes", ""); m.Value <= 0 {
		t.Errorf("go_heap_live_bytes = %d, want > 0", m.Value)
	}
	if m, ok := first.Get("txn_total", ""); !ok || m.Value != 1 {
		t.Errorf("Scrape lost the registry's txn_total: %+v, %v", m, ok)
	}
	for i := 1; i < len(first.Metrics); i++ {
		a, b := first.Metrics[i-1], first.Metrics[i]
		if a.Name > b.Name || a.Name == b.Name && a.Label >= b.Label {
			t.Errorf("Scrape out of (Name, Label) order at %d: %s{%s} before %s{%s}", i, a.Name, a.Label, b.Name, b.Label)
		}
	}
	var prom bytes.Buffer
	if err := WriteProm(&prom, first); err != nil {
		t.Fatal(err)
	}
	if err := ValidateExposition(prom.Bytes()); err != nil {
		t.Errorf("Scrape's exposition invalid: %v\n%s", err, prom.Bytes())
	}

	prev := first
	for i := 0; i < 3; i++ {
		runtime.GC()
		cur := Scrape(r)
		if c, p := cur.Family("go_gc_cycles")[0].Value, prev.Family("go_gc_cycles")[0].Value; c <= p {
			t.Errorf("go_gc_cycles %d -> %d across runtime.GC, want growth", p, c)
		}
		if c, p := cur.Family("go_gc_pause_ns")[0].Count, prev.Family("go_gc_pause_ns")[0].Count; c < p {
			t.Errorf("go_gc_pause_ns count fell between scrapes: %d -> %d", p, c)
		}
		prev = cur
	}

	for _, m := range r.Snapshot().Metrics {
		if strings.HasPrefix(m.Name, "go_") {
			t.Errorf("Registry.Snapshot has runtime family %s; only Scrape adds them", m.Name)
		}
	}
}

func TestHandlerFilterParam(t *testing.T) {
	r := NewRegistry()
	r.Counter("lock_x", "a").Add(1)
	r.Counter("txn_total", "").Add(2)

	srv := httptest.NewServer(Handler(r))
	defer srv.Close()

	res, err := srv.Client().Get(srv.URL + "/stats?filter=lock_")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := res.Body.Close(); err != nil {
			t.Error(err)
		}
	}()
	var snap Snapshot
	if err := json.NewDecoder(res.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Metrics) != 1 || snap.Metrics[0].Name != "lock_x" {
		t.Fatalf("?filter=lock_ returned %+v", snap.Metrics)
	}
}

func TestPromHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("propagate_tuples", "hv").Add(3)
	r.Histogram("txn_exec_ns", "").Observe(1500)

	srv := httptest.NewServer(PromHandler(r))
	defer srv.Close()

	res, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := res.Body.Close(); err != nil {
			t.Error(err)
		}
	}()
	if ct := res.Header.Get("Content-Type"); ct != promContentType {
		t.Errorf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateExposition(body); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, body)
	}

	res2, err := srv.Client().Get(srv.URL + "/metrics?filter=propagate_")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := res2.Body.Close(); err != nil {
			t.Error(err)
		}
	}()
	body2, err := io.ReadAll(res2.Body)
	if err != nil {
		t.Fatal(err)
	}
	if string(body2) == string(body) {
		t.Fatal("?filter= had no effect on /metrics")
	}
	if err := ValidateExposition(body2); err != nil {
		t.Fatalf("filtered exposition invalid: %v\n%s", err, body2)
	}
}
