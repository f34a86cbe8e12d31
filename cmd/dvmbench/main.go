// Command dvmbench regenerates every experiment in DESIGN.md's
// per-experiment index (E1–E14) and prints the result tables that
// EXPERIMENTS.md records.
//
// Usage:
//
//	dvmbench                    # run all experiments
//	dvmbench -exp e4            # run one experiment ("day" is the
//	                            # Policy-2 retail day make profile captures)
//	dvmbench -list              # list experiment ids
//	dvmbench -json              # emit the reports (tables + obs phase timings) as JSON
//	dvmbench -trace out.json    # also run a traced Policy-1 retail day and
//	                            # write its Chrome trace-event file (Perfetto)
//	dvmbench -diff BENCH_X.json # fail (exit 1) if any guarded phase
//	                            # (view_downtime_ns max, txn_exec_ns p99)
//	                            # regressed >2x against the baseline
//	dvmbench -exp day -cpuprofile cpu.pprof -memprofile heap.pprof
//	                            # capture labeled profiles of the run; the CPU
//	                            # profile gets a dvm_view/dvm_phase
//	                            # attribution summary on stderr
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"dvm/internal/bench"
	"dvm/internal/obs"
	"dvm/internal/obs/profparse"
	"dvm/internal/obs/trace"
)

// diffFactor is the regression threshold -diff enforces: a downtime
// phase fails when its max exceeds this multiple of the baseline's.
const diffFactor = 2.0

func main() {
	os.Exit(run())
}

// run is main with an exit code instead of os.Exit, so the profiling
// defers (StopCPUProfile, heap write, attribution summary) flush even
// on failure paths.
func run() int {
	exp := flag.String("exp", "", "run a single experiment (e1..e14, day); empty runs all")
	list := flag.Bool("list", false, "list experiment ids and exit")
	asJSON := flag.Bool("json", false, "emit reports as JSON (for BENCH_*.json baselines)")
	traceOut := flag.String("trace", "", "write a Chrome trace-event file of a traced Policy-1 retail day")
	diff := flag.String("diff", "", "compare downtime phases against this BENCH_*.json baseline; exit 1 on >2x regression")
	cpuprofile := flag.String("cpuprofile", "", "write a labeled CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile taken after the run to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			_ = f.Close() // the profile never started; the start error is what matters
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			summarizeCPUProfile(*cpuprofile)
		}()
	}
	if *memprofile != "" {
		defer func() {
			if err := writeHeapProfile(*memprofile); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	if *traceOut != "" {
		if err := writeTrace(*traceOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if *exp == "" && !*asJSON && *diff == "" && !*list {
			return 0
		}
	}

	exps := bench.All()
	if *list {
		for _, e := range exps {
			fmt.Println(e.ID)
		}
		return 0
	}

	var reports []*bench.Report
	for _, e := range exps {
		if *exp != "" && !strings.EqualFold(*exp, e.ID) {
			continue
		}
		start := time.Now()
		rep, err := e.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			return 1
		}
		if *asJSON {
			fmt.Fprintf(os.Stderr, "(%s completed in %v)\n", e.ID, time.Since(start).Round(time.Millisecond))
		} else {
			fmt.Println(rep)
			fmt.Printf("(%s completed in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		}
		reports = append(reports, rep)
	}
	if len(reports) == 0 {
		fmt.Fprintf(os.Stderr, "no experiment named %q; try -list\n", *exp)
		return 1
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if *diff != "" {
		if err := diffAgainst(*diff, reports); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "benchdiff: no downtime regression vs %s\n", *diff)
	}
	return 0
}

// writeHeapProfile forces a GC (so the heap profile reflects live
// objects, not garbage) and writes the allocs-to-date profile to path.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	werr := pprof.WriteHeapProfile(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return werr
	}
	fmt.Fprintf(os.Stderr, "wrote heap profile to %s\n", path)
	return nil
}

// summarizeCPUProfile re-reads the just-written CPU profile and prints
// a dvm label attribution summary: how much of the sampled CPU time
// carries the dvm_phase label, and the per-phase split. This is the
// quick check that the pprof-label plumbing covered the maintenance
// regions — `go tool pprof -tags` gives the full drill-down.
func summarizeCPUProfile(path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	p, err := profparse.Parse(data)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cpuprofile summary: %v\n", err)
		return
	}
	// CPU profiles carry [samples/count, cpu/nanoseconds]; index 1 is
	// nanoseconds.
	st := p.Attribution(1, obs.LabelPhase, obs.LabelPhase)
	fmt.Fprintf(os.Stderr, "wrote CPU profile to %s\n", path)
	if st.Total == 0 {
		fmt.Fprintln(os.Stderr, "cpuprofile summary: no samples captured (run too short?)")
		return
	}
	fmt.Fprintf(os.Stderr, "cpuprofile summary: %s sampled, %.1f%% labeled with %s\n",
		time.Duration(st.Total), 100*float64(st.Labeled)/float64(st.Total), obs.LabelPhase)
	phases := make([]string, 0, len(st.ByValue))
	for phase := range st.ByValue {
		if phase != "" {
			phases = append(phases, phase)
		}
	}
	sort.Slice(phases, func(i, j int) bool { return st.ByValue[phases[i]] > st.ByValue[phases[j]] })
	for _, phase := range phases {
		fmt.Fprintf(os.Stderr, "  %s=%s  %v\n", obs.LabelPhase, phase, time.Duration(st.ByValue[phase]))
	}
}

// writeTrace runs the traced Policy-1 retail day and writes its Chrome
// trace-event export to path, verifying the file through the in-repo
// parser first.
func writeTrace(path string) error {
	data, err := bench.TracedRetailRun(24, 40)
	if err != nil {
		return err
	}
	if _, err := trace.ParseChrome(data); err != nil {
		return fmt.Errorf("dvmbench: exported trace failed validation: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote Chrome trace-event file to %s (load in Perfetto or chrome://tracing)\n", path)
	return nil
}

// diffAgainst compares the fresh reports' guarded phases with a
// baseline file, returning an error listing every >2x regression.
// Suspected regressions get one reproduction run of the implicated
// experiment before failing the gate (bench.CompareWithRetry).
func diffAgainst(path string, fresh []*bench.Report) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	baseline, err := bench.ParseReports(data)
	if err != nil {
		return err
	}
	rerun := func(id string) (*bench.Report, error) {
		for _, e := range bench.All() {
			if strings.EqualFold(e.ID, id) {
				fmt.Fprintf(os.Stderr, "benchdiff: %s regressed, re-running to confirm\n", id)
				return e.Run()
			}
		}
		return nil, nil
	}
	if problems := bench.CompareWithRetry(baseline, fresh, diffFactor, rerun); len(problems) > 0 {
		return fmt.Errorf("benchdiff: downtime regression vs %s:\n  %s", path, strings.Join(problems, "\n  "))
	}
	return nil
}
