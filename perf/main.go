// Command perf is the repository's benchmark: the deferred-maintenance
// day of Colby et al. (Example 5.4) as four fixed-work, stationary
// workloads, with five bounded end-to-end metrics and, on a traced run,
// the day's timing metrics as cycle medians, per-layer metrics and a
// budget of day_ms.
// README.md in this directory is the manual.
//
//	go run -C perf . -workload retail_policy2 -seed 1 -seconds 20 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; everything before it is for
// people. The exit code is 0 only if every op succeeded and the views
// passed verification.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed      = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds   = flag.Int("seconds", defaultSeconds, "run length; maps to a fixed number of cycles, never to a deadline")
		trace     = flag.Int("trace", 0, "1 = traced run: per-layer metrics, budget table, out/<workload>.trace.json")
		outDir    = flag.String("out", "out", "directory a traced run writes its trace and budget to")
		selfcheck = flag.Bool("selfcheck", false, "run the determinism and stationarity self-check at small scale and exit")
		noise     = flag.String("noise", "", "directory of result lines (see noise.sh): print the noise report and exit")
	)
	flag.Parse()
	// One client, at most two processors: the second one keeps the
	// garbage collector off the driver's.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	switch {
	case *noise != "":
		ok, err := noiseReport(os.Stdout, *noise)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perf:", err)
			os.Exit(2)
		}
		if !ok {
			os.Exit(1)
		}
		return
	case *selfcheck:
		if _, _, err := selfCheck(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perf: self-check failed:", err)
			os.Exit(1)
		}
		fmt.Println("self-check passed")
		return
	}

	sp := findSpec(*workload)
	if sp == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perf: need -workload (one of %s), -seconds >= 1 and -trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	res := run(config{
		sp: *sp, seed: *seed, cycles: sp.cyclesFor(*seconds), builds: setupBuilds,
		trace: *trace == 1, outDir: *outDir, log: os.Stdout,
	})
	printResult(sp.name, res)
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "perf:", res.err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for _, s := range specs {
		names = append(names, s.name)
	}
	return names
}

// printResult lists every metric by name with its unit, then the
// ops line, then the JSON line the contract asks for.
func printResult(workload string, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-40s %16.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Printf("%s: ops_attempted=%d ops_failed=%d correct=%v\n", workload, res.Attempted, res.Failed, res.Correct)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perf:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
}
