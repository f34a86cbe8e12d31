// Command dvmstatsd serves a dvm engine's metrics and traces over
// HTTP — the live half of the observability layer
// (docs/observability.md).
//
// It builds an engine (fresh, from a -load snapshot, or by executing a
// -f SQL script), then serves the engine's registry and tracer on
// -addr:
//
//	GET /stats             JSON snapshot of every metric (?filter=PREFIX)
//	GET /stats?format=text the aligned table dvmsh \stats prints
//	GET /metrics           Prometheus text exposition of the registry
//	GET /trace             JSON list of captured trace summaries
//	GET /trace?id=42       one full span tree (add &format=text to render)
//	GET /trace?format=chrome  the ring as Chrome trace-event JSON (Perfetto)
//	GET /debug/pprof/      net/http/pprof profiles; CPU samples carry the
//	                       dvm_view/dvm_phase labels
//	GET /healthz           200 ok (liveness probe)
//
// /stats and /metrics read the Go runtime's go_* families from
// runtime/metrics at scrape time (obs.Scrape), so nothing polls in the
// background. SIGINT/SIGTERM shuts the server down gracefully
// (in-flight requests get up to 5s to finish).
//
// With -demo it additionally runs a small retail-style workload in a
// loop (one writer goroutine; the HTTP side only reads atomics), so the
// histograms and the trace ring keep moving while you watch:
//
//	dvmstatsd -demo &
//	curl 'localhost:7171/metrics'
//	curl 'localhost:7171/trace?n=3'
//
// One non-serving mode supports tooling: -once FILE writes one
// validated /metrics exposition snapshot to FILE and exits (CI uploads
// it as a failure artifact).
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dvm/internal/obs"
	"dvm/internal/obs/trace"
	"dvm/internal/sql"
)

// shutdownTimeout bounds how long graceful shutdown waits for
// in-flight requests.
const shutdownTimeout = 5 * time.Second

func main() {
	addr := flag.String("addr", "127.0.0.1:7171", "listen address for the stats endpoint")
	file := flag.String("f", "", "execute this SQL script before serving")
	load := flag.String("load", "", "restore an engine snapshot before serving")
	demo := flag.Bool("demo", false, "run a looping retail-style workload so metrics keep moving")
	traceSpec := flag.String("trace", "all", "trace sampling: off|all|rate=N|threshold=DUR (served on /trace)")
	once := flag.String("once", "", "write one /metrics exposition snapshot to this file and exit")
	flag.Parse()

	engine := sql.NewEngine(sql.WithTraceSpec(*traceSpec))
	if err := engine.Err(); err != nil {
		fatal(err)
	}
	if *load != "" {
		f, err := os.Open(*load)
		if err != nil {
			fatal(err)
		}
		engine, err = sql.LoadEngine(f, sql.WithTraceSpec(*traceSpec))
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatal(fmt.Errorf("load: %w", err))
		}
	}
	if *file != "" {
		data, err := os.ReadFile(*file)
		if err != nil {
			fatal(err)
		}
		if _, err := engine.ExecScript(string(data)); err != nil {
			fatal(fmt.Errorf("script: %w", err))
		}
	}
	if *once != "" {
		if err := writeMetricsSnapshot(engine, *once); err != nil {
			fatal(err)
		}
		fmt.Printf("dvmstatsd: wrote metrics snapshot to %s\n", *once)
		return
	}

	if *demo {
		if err := startDemo(engine); err != nil {
			fatal(fmt.Errorf("demo: %w", err))
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("dvmstatsd serving http://%s/stats\n", ln.Addr())
	srv := &http.Server{Handler: newMux(engine), ReadHeaderTimeout: 5 * time.Second}
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	if err := serveUntilSignal(srv, ln, sigc, shutdownTimeout); err != nil {
		fatal(err)
	}
	fmt.Println("dvmstatsd: shut down cleanly")
}

// newMux builds the daemon's routes over the engine's registry and
// tracer.
func newMux(engine *sql.Engine) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/stats", obs.Handler(engine.Manager().Obs()))
	mux.Handle("/metrics", obs.PromHandler(engine.Manager().Obs()))
	mux.Handle("/trace", trace.Handler(engine.Manager().Tracer()))
	mux.HandleFunc("/debug/pprof/", httppprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "dvmstatsd — GET /stats (JSON), /stats?format=text, /metrics, /trace, /debug/pprof/, /healthz")
	})
	return mux
}

// writeMetricsSnapshot scrapes the engine's registry (obs.Scrape, so
// the go_* families are in it), renders it in exposition format, writes
// it to path, and runs the strict validator over what it rendered — the
// -once mode CI uses to attach a /metrics artifact to failures. The
// file is written first, so an invalid exposition is still there to
// triage.
func writeMetricsSnapshot(engine *sql.Engine, path string) error {
	var buf bytes.Buffer
	if err := obs.WriteProm(&buf, obs.Scrape(engine.Manager().Obs())); err != nil {
		return err
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o666); err != nil {
		return err
	}
	if err := obs.ValidateExposition(buf.Bytes()); err != nil {
		return fmt.Errorf("snapshot failed exposition validation: %w", err)
	}
	return nil
}

// serveUntilSignal serves on ln until the server fails or a signal
// arrives on sigc, then shuts down gracefully: no new connections,
// in-flight requests get up to timeout to complete.
func serveUntilSignal(srv *http.Server, ln net.Listener, sigc <-chan os.Signal, timeout time.Duration) error {
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-sigc:
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return err
		}
		if err := <-errc; err != http.ErrServerClosed {
			return err
		}
		return nil
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// startDemo sets up a COMBINED retail view and keeps a single writer
// goroutine inserting sales, propagating, and refreshing on Policy 1
// (propagate every batch, refresh every 8th), with interleaved reads.
func startDemo(engine *sql.Engine) error {
	setup := `
CREATE TABLE sales (id INT, region STRING, amount INT);
CREATE MATERIALIZED VIEW big_sales REFRESH DEFERRED COMBINED AS
  SELECT id, region, amount FROM sales WHERE amount > 500;
`
	if _, err := engine.ExecScript(setup); err != nil {
		return err
	}
	go func() {
		for i := 0; ; i++ {
			stmt := fmt.Sprintf(
				"INSERT INTO sales VALUES (%d, 'r%d', %d);PROPAGATE big_sales;SELECT region FROM big_sales;",
				i, i%4, (i*137)%1000)
			if i%8 == 7 {
				stmt += "REFRESH big_sales;"
			}
			if _, err := engine.ExecScript(stmt); err != nil {
				fmt.Fprintln(os.Stderr, "demo:", err)
				return
			}
			time.Sleep(50 * time.Millisecond)
		}
	}()
	return nil
}
