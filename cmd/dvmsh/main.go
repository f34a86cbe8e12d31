// Command dvmsh is an interactive SQL shell over the deferred view
// maintenance engine. Statements end with ';'. Besides the usual DDL/DML
// it supports the maintenance statements of the paper's Figure 3:
//
//	CREATE MATERIALIZED VIEW v REFRESH DEFERRED [LOGGED|DIFFERENTIAL|COMBINED [MIN]] AS SELECT ...
//	CREATE MATERIALIZED VIEW v REFRESH IMMEDIATE AS SELECT ...
//	REFRESH v; PROPAGATE v; PARTIAL REFRESH v; RECOMPUTE v; CHECK INVARIANT v;
//
// Shell meta-commands start with a backslash on their own line:
//
//	\stats [prefix]      print the engine's metrics (docs/observability.md),
//	                     optionally only families starting with prefix —
//	                     e.g. \stats propagate for propagate_ns and
//	                     propagate_tuples
//	\stats rate [prefix] print what changed since the previous
//	                     \stats rate (or shell start): counter/histogram
//	                     rates per second, gauge deltas
//	\trace [n]           print the last n captured trace trees (default 5),
//	                     newest first (docs/observability.md "Tracing")
//
// A file of statements can be piped on stdin, or passed with -f.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"dvm/internal/obs"
	"dvm/internal/obs/trace"
	"dvm/internal/sql"
)

func main() {
	file := flag.String("f", "", "execute statements from this file, then exit")
	load := flag.String("load", "", "restore an engine snapshot before starting")
	save := flag.String("save", "", "write an engine snapshot on clean exit")
	traceSpec := flag.String("trace", "all", "trace sampling: off|all|rate=N|threshold=DUR (inspect with \\trace)")
	flag.Parse()

	engine := sql.NewEngine(sql.WithTraceSpec(*traceSpec))
	if err := engine.Err(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *load != "" {
		f, err := os.Open(*load)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		engine, err = sql.LoadEngine(f, sql.WithTraceSpec(*traceSpec))
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "load:", err)
			os.Exit(1)
		}
	}
	saveAndExit := func(code int) {
		if *save != "" {
			f, err := os.Create(*save)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if err := saveTo(engine, f); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		os.Exit(code)
	}

	if *file != "" {
		f, err := os.Open(*file)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		in := bufio.NewScanner(f)
		in.Buffer(make([]byte, 1<<20), 1<<20)
		err = runLines(newShell(engine), in, false, true)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		saveAndExit(0)
	}

	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 1<<20), 1<<20)
	interactive := isTerminal()
	if interactive {
		fmt.Println("dvm shell — deferred view maintenance (SIGMOD '96). End statements with ';'.")
	}
	if err := runLines(newShell(engine), in, interactive, false); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
	}
	saveAndExit(0)
}

// saveTo writes engine's snapshot to w and closes it, returning the
// first error of the two: a file that fails only at Close has still
// lost the snapshot. A write error comes back prefixed "save: ".
func saveTo(engine *sql.Engine, w io.WriteCloser) error {
	if err := engine.SaveTo(w); err != nil {
		_ = w.Close() // the snapshot is already broken; the write error is what matters
		return fmt.Errorf("save: %w", err)
	}
	return w.Close()
}

// runLines drives the statement loop: lines accumulate until a ';',
// backslash meta-commands execute immediately. With stopOnErr the first
// statement error aborts (batch -f mode); otherwise errors are printed
// and the loop continues (interactive mode).
func runLines(sh *shell, in *bufio.Scanner, interactive, stopOnErr bool) error {
	engine := sh.engine
	var buf strings.Builder
	prompt(interactive, false)
	for in.Scan() {
		line := in.Text()
		if buf.Len() == 0 && strings.HasPrefix(strings.TrimSpace(line), "\\") {
			sh.metaCommand(os.Stdout, strings.TrimSpace(line))
			prompt(interactive, false)
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		text := strings.TrimSpace(buf.String())
		if text == "" {
			prompt(interactive, false)
			continue
		}
		if text == "quit" || text == "exit" {
			return nil
		}
		if !strings.HasSuffix(text, ";") {
			prompt(interactive, true)
			continue
		}
		buf.Reset()
		results, err := engine.ExecScript(text)
		for _, r := range results {
			fmt.Println(r)
		}
		if err != nil {
			if stopOnErr {
				return err
			}
			fmt.Fprintln(os.Stderr, "error:", err)
		}
		prompt(interactive, false)
	}
	return nil
}

// shell carries the session state meta-commands need across
// invocations: the engine plus the snapshot baseline \stats rate
// diffs against.
type shell struct {
	engine *sql.Engine
	// prevSnap/prevAt are the \stats rate baseline: the registry
	// snapshot (and wall time) at shell start, advanced by every
	// \stats rate call so consecutive calls show successive windows.
	prevSnap obs.Snapshot
	prevAt   time.Time
}

// newShell wraps an engine with shell state, capturing the initial
// \stats rate baseline.
func newShell(engine *sql.Engine) *shell {
	return &shell{
		engine:   engine,
		prevSnap: engine.Manager().Obs().Snapshot(),
		prevAt:   time.Now(),
	}
}

// metaCommand handles backslash commands (\stats [prefix],
// \stats rate [prefix], \trace [n]), writing output to w.
func (sh *shell) metaCommand(w io.Writer, cmd string) {
	engine := sh.engine
	fields := strings.Fields(cmd)
	switch fields[0] {
	case "\\stats":
		if len(fields) > 1 && fields[1] == "rate" {
			sh.statsRate(w, fields[2:])
			return
		}
		snap := engine.Manager().Obs().Snapshot()
		if len(fields) > 1 {
			snap = snap.Filter(fields[1])
		}
		fmt.Fprint(w, snap.String())
	case "\\trace":
		n := 5
		if len(fields) > 1 {
			v, err := strconv.Atoi(fields[1])
			if err != nil || v < 1 {
				fmt.Fprintln(w, "usage: \\trace [n]")
				return
			}
			n = v
		}
		tracer := engine.Manager().Tracer()
		traces := tracer.Last(n)
		if len(traces) == 0 {
			fmt.Fprintf(w, "no traces captured (sampling mode: %s)\n", tracer.Mode())
			return
		}
		fmt.Fprint(w, trace.RenderAll(traces))
	default:
		fmt.Fprintf(w, "unknown command %s (try \\stats or \\trace)\n", fields[0])
	}
}

// statsRate renders the metric movement since the previous baseline
// (obs.RateString) and advances the baseline, so each call reports the
// window since the last one. An optional prefix filters both snapshots.
func (sh *shell) statsRate(w io.Writer, args []string) {
	cur := sh.engine.Manager().Obs().Snapshot()
	now := time.Now()
	prev, dt := sh.prevSnap, now.Sub(sh.prevAt)
	sh.prevSnap, sh.prevAt = cur, now
	if len(args) > 0 {
		prev, cur = prev.Filter(args[0]), cur.Filter(args[0])
	}
	fmt.Fprintf(w, "rate over the last %v:\n", dt.Round(time.Millisecond))
	fmt.Fprint(w, obs.RateString(prev, cur, dt))
}

func prompt(interactive, continuation bool) {
	if !interactive {
		return
	}
	if continuation {
		fmt.Print("   ...> ")
	} else {
		fmt.Print("dvm> ")
	}
}

func isTerminal() bool {
	fi, err := os.Stdin.Stat()
	if err != nil {
		return false
	}
	return fi.Mode()&os.ModeCharDevice != 0
}
