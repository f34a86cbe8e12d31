// Command dvmlint runs the repo-specific static-analysis suite over
// the module; `dvmlint -list` prints the checks, and
// docs/static-analysis.md describes them. It prints one
// "file:line:col: [check] message" per finding, or a JSON array with
// -json.
//
// Usage:
//
//	dvmlint [-checks check1,check2] [-list] [-json] [./...]
//
// -list prints the analyzer catalogue (name and one-line doc) without
// running anything.
//
// Exit codes: 0 = clean, 1 = findings survived suppression, 2 = the
// package set failed to load or type-check (or the flags were invalid),
// so CI can distinguish lint findings from a broken build.
//
// Package patterns are accepted for command-line compatibility but the
// whole module containing the working directory is always analyzed —
// the analyzers are cross-cutting, so partial loads would miss
// inter-package facts.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"dvm/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of main: it parses flags, analyzes the
// module containing the current directory, renders findings to stdout,
// and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dvmlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	checks := fs.String("checks", "", "comma-separated checks to run (default: all)")
	list := fs.Bool("list", false, "list available checks and exit")
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array (stable field names, position-sorted)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range lint.All() {
			fmt.Fprintf(stdout, "%-28s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers, err := lint.Select(*checks)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	loader, err := lint.NewLoader(".")
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	all := lint.RunAnalyzers(pkgs, analyzers, lint.DefaultConfig())
	cwd, _ := os.Getwd()
	var findings []lint.Finding
	for _, f := range all {
		if cwd != "" {
			if rel, err := filepath.Rel(cwd, f.Pos.Filename); err == nil {
				f.Pos.Filename = rel
			}
		}
		// Warnings (e.g. a suppression naming an unknown check) go to
		// stderr and never affect the exit code or the JSON contract.
		if f.Warning {
			fmt.Fprintf(stderr, "%s:%d:%d: [%s] warning: %s\n", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Check, f.Message)
			continue
		}
		findings = append(findings, f)
	}
	if *jsonOut {
		if err := lint.WriteJSON(stdout, findings); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintf(stdout, "%s:%d:%d: [%s] %s\n", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Check, f.Message)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "dvmlint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}
