package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"dvm/internal/obs"
	"dvm/internal/obs/trace"
	"dvm/internal/sql"
)

func statsdEngine(t *testing.T) *sql.Engine {
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
PROPAGATE big;
REFRESH big;
`
	if _, err := engine.ExecScript(script); err != nil {
		t.Fatal(err)
	}
	return engine
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func TestHealthzAndRoutes(t *testing.T) {
	srv := httptest.NewServer(newMux(statsdEngine(t)))
	defer srv.Close()

	code, body := get(t, srv.URL+"/healthz")
	if code != http.StatusOK || string(body) != "ok\n" {
		t.Errorf("/healthz = %d %q, want 200 ok", code, body)
	}

	code, body = get(t, srv.URL+"/stats")
	if code != http.StatusOK {
		t.Errorf("/stats = %d", code)
	}
	var snap struct {
		Metrics []struct{ Name string } `json:"metrics"`
	}
	if err := json.Unmarshal(body, &snap); err != nil || len(snap.Metrics) == 0 {
		t.Errorf("/stats body not a metrics snapshot (%v):\n%s", err, body)
	}

	code, body = get(t, srv.URL+"/trace")
	if code != http.StatusOK {
		t.Fatalf("/trace = %d", code)
	}
	var summaries []trace.Summary
	if err := json.Unmarshal(body, &summaries); err != nil {
		t.Fatalf("/trace body: %v\n%s", err, body)
	}
	if len(summaries) == 0 {
		t.Fatal("/trace returned no captured traces")
	}

	// Single-trace fetch, JSON and text.
	id := summaries[0].ID
	code, body = get(t, fmt.Sprintf("%s/trace?id=%d", srv.URL, id))
	if code != http.StatusOK {
		t.Errorf("/trace?id=%d = %d", id, code)
	}
	var tr trace.Trace
	if err := json.Unmarshal(body, &tr); err != nil || tr.ID != id || tr.Root == nil {
		t.Errorf("/trace?id=%d body mangled (%v):\n%s", id, err, body)
	}
	code, body = get(t, fmt.Sprintf("%s/trace?id=%d&format=text", srv.URL, id))
	if code != http.StatusOK || len(body) == 0 || body[0] != '#' {
		t.Errorf("/trace?id&format=text = %d %q", code, body)
	}

	// The whole ring as Chrome trace-event JSON, through the validating
	// parser: one lane per captured trace.
	code, body = get(t, srv.URL+"/trace?format=chrome")
	if code != http.StatusOK {
		t.Fatalf("/trace?format=chrome = %d", code)
	}
	events, err := trace.ParseChrome(body)
	if err != nil {
		t.Fatalf("/trace?format=chrome: %v", err)
	}
	lanes := map[int64]bool{}
	for _, ev := range events {
		lanes[ev.Tid] = true
	}
	if len(lanes) != len(summaries) {
		t.Errorf("chrome export has %d lanes, ring holds %d traces", len(lanes), len(summaries))
	}

	if code, _ := get(t, srv.URL+"/trace?id=999999"); code != http.StatusNotFound {
		t.Errorf("/trace?id=999999 = %d, want 404", code)
	}
	if code, _ := get(t, srv.URL+"/trace?id=bogus"); code != http.StatusBadRequest {
		t.Errorf("/trace?id=bogus = %d, want 400", code)
	}
}

// TestMetricsEndpoint scrapes /metrics: the engine's families and the
// go_* runtime families are there without starting anything.
func TestMetricsEndpoint(t *testing.T) {
	srv := httptest.NewServer(newMux(statsdEngine(t)))
	defer srv.Close()

	code, body := get(t, srv.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	if err := obs.ValidateExposition(body); err != nil {
		t.Fatalf("/metrics failed the exposition validator: %v\n%s", err, body)
	}
	for _, want := range []string{
		"# TYPE dvm_view_downtime_ns histogram",
		`dvm_propagate_ns_count{view="big"} `,
		"# TYPE dvm_go_goroutines gauge",
		`dvm_go_gc_pause_ns_bucket{le="+Inf"} `,
		`dvm_phase_alloc_bytes{view="big",phase="propagate"} `,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// The ?filter= prefix narrows the exposition like /stats.
	code, filtered := get(t, srv.URL+"/metrics?filter=go_")
	if code != http.StatusOK {
		t.Fatalf("/metrics?filter=go_ = %d", code)
	}
	if strings.Contains(string(filtered), "dvm_view_downtime_ns") {
		t.Error("?filter=go_ still exposes view_downtime")
	}
	if !strings.Contains(string(filtered), "dvm_go_goroutines") {
		t.Error("?filter=go_ dropped the go_ families")
	}

	// /stats must set a Content-Type and honour ?filter= too.
	resp, err := http.Get(srv.URL + "/stats?filter=propagate_")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json; charset=utf-8" {
		t.Errorf("/stats Content-Type = %q", ct)
	}
	var snap struct {
		Metrics []struct{ Name string } `json:"metrics"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	for _, m := range snap.Metrics {
		if !strings.HasPrefix(m.Name, "propagate_") {
			t.Errorf("/stats?filter=propagate_ leaked family %s", m.Name)
		}
	}
}

func TestPprofEndpoint(t *testing.T) {
	srv := httptest.NewServer(newMux(statsdEngine(t)))
	defer srv.Close()
	code, body := get(t, srv.URL+"/debug/pprof/goroutine?debug=1")
	if code != http.StatusOK || !strings.Contains(string(body), "goroutine profile") {
		t.Fatalf("/debug/pprof/goroutine = %d %.60q", code, body)
	}
}

// TestWriteMetricsSnapshot checks the -once file CI uploads: a valid
// exposition that carries the go_* runtime families.
func TestWriteMetricsSnapshot(t *testing.T) {
	engine := statsdEngine(t)
	path := t.TempDir() + "/metrics.prom"
	if err := writeMetricsSnapshot(engine, path); err != nil {
		t.Fatalf("writeMetricsSnapshot: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateExposition(data); err != nil {
		t.Fatalf("snapshot file invalid: %v", err)
	}
	for _, want := range []string{"\ndvm_go_goroutines ", "\ndvm_go_gc_pause_ns_bucket{"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("snapshot file missing a %q line", want[1:])
		}
	}
}

func TestGracefulShutdown(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: newMux(statsdEngine(t))}
	sigc := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() { done <- serveUntilSignal(srv, ln, sigc, shutdownTimeout) }()

	// The server must be live before we signal it.
	url := "http://" + ln.Addr().String() + "/healthz"
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never came up: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	sigc <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown returned %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serveUntilSignal did not return after SIGTERM")
	}

	// The listener must actually be closed.
	if resp, err := http.Get(url); err == nil {
		resp.Body.Close()
		t.Fatal("server still serving after shutdown")
	}
}
