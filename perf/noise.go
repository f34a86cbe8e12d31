package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// The noise report answers one question: run twice on the same code, does
// the benchmark say the same thing? noise.sh makes two sets of runs (each
// run another seed), untraced and traced, and stores every run's output
// as <dir>/set<k>/<workload>.<i>.json and <dir>/traced<k>/…; this file
// prints, per workload and metric, each set's median and quartiles, the
// gap between the two set medians and the largest single-run deviation
// from its set median. The verdict is Issue 14's rule: an end-to-end
// metric fails when the gap is above half its bound or a single run is
// further than the bound from its set median; counts (ops_attempted) must
// repeat within 0.5 %. The demoted timing metrics (traced runs) are held
// against the 0.10 they would need to be end-to-end again; their flags
// are shown in brackets and do not fail the report.

func readSet(dir, workload string) ([]map[string]float64, error) {
	files, err := filepath.Glob(filepath.Join(dir, workload+".*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(files)
	var runs []map[string]float64
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		last := lines[len(lines)-1] // the result is the last line a run prints
		var res result
		if err := json.Unmarshal([]byte(last), &res); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if !res.Correct || res.Failed != 0 {
			return nil, fmt.Errorf("%s: run was not correct (%d of %d ops failed)", f, res.Failed, res.Attempted)
		}
		m := map[string]float64{"ops_attempted": float64(res.Attempted)}
		for k, v := range res.Metrics {
			m[k] = v.Value
		}
		runs = append(runs, m)
	}
	return runs, nil
}

// readSets reads <dir>/<prefix>1 and <dir>/<prefix>2.
func readSets(dir, prefix, workload string) (sets [2][]map[string]float64, err error) {
	for k := range sets {
		sub := filepath.Join(dir, fmt.Sprintf("%s%d", prefix, k+1))
		if sets[k], err = readSet(sub, workload); err != nil {
			return sets, err
		}
		if len(sets[k]) == 0 {
			return sets, fmt.Errorf("%s: no runs of %s", sub, workload)
		}
	}
	return sets, nil
}

func column(runs []map[string]float64, metric string) []float64 {
	var xs []float64
	for _, r := range runs {
		xs = append(xs, r[metric])
	}
	return xs
}

// noiseReport prints the report as markdown and returns whether every
// metric stayed inside its limits.
func noiseReport(w io.Writer, dir string) (ok bool, err error) {
	// ops_attempted is not a reported metric, but it must not move.
	metrics := append(append([]metricDef{}, endToEnd...), metricDef{name: "ops_attempted", unit: "count", bound: 0.005})
	for _, md := range perLayer[:demoted] {
		md.bound = demotedBound
		metrics = append(metrics, md)
	}

	fmt.Fprintln(w, "# Noise report: two sets of runs of the same code")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Produced by `perf/noise.sh`; every run has its own seed, the four workloads are interleaved. `gap` is the")
	fmt.Fprintln(w, "distance between the two set medians, `maxdev` the largest distance of a single run from its set median,")
	fmt.Fprintln(w, "`spread` is (q3 − q1)/median over all runs of both sets — all as a share of the median, in %.")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Flags (Issue 14's rule; any flag fails the report): `gap` gap > bound/2, `dev` maxdev > bound. The last")
	fmt.Fprintf(w, "%d rows of each table are the demoted timing metrics, from the traced runs, held against the %.2f they\n", demoted, demotedBound)
	fmt.Fprintln(w, "would need to be end-to-end; their flags are in brackets and fail nothing.")
	failed := 0
	for _, sp := range specs {
		runs, err := readSets(dir, "set", sp.name)
		if err != nil {
			return false, err
		}
		traced, err := readSets(dir, "traced", sp.name)
		if err != nil {
			return false, err
		}
		fmt.Fprintf(w, "\n## %s (%d + %d runs)\n\n", sp.name, len(runs[0]), len(runs[1]))
		fmt.Fprintln(w, "| metric | unit | bound % | set 1 median [q1, q3] | set 2 median [q1, q3] | gap % | maxdev % | spread % | flags |")
		fmt.Fprintln(w, "|---|---|---:|---|---|---:|---:|---:|---|")
		for i, md := range metrics {
			isDemoted := i >= len(metrics)-demoted
			if isDemoted {
				runs = traced
			}
			var med [2]float64
			var cell [2]string
			maxdev := 0.0
			for k := range runs {
				xs := column(runs[k], md.name)
				med[k] = median(xs)
				cell[k] = fmt.Sprintf("%.5g [%.5g, %.5g]", med[k], quantile(xs, 0.25), quantile(xs, 0.75))
				for _, x := range xs {
					maxdev = max(maxdev, math.Abs(x-med[k])/med[k])
				}
			}
			gap := math.Abs(med[1]-med[0]) / med[0]
			all := append(column(runs[0], md.name), column(runs[1], md.name)...)
			spread := (quantile(all, 0.75) - quantile(all, 0.25)) / median(all)
			var flags []string
			if gap > md.bound/2 {
				flags = append(flags, "gap")
			}
			if maxdev > md.bound {
				flags = append(flags, "dev")
			}
			flag := strings.Join(flags, " ")
			if isDemoted && flag != "" {
				flag = "(" + flag + ")"
			} else if flag != "" {
				failed++
			}
			fmt.Fprintf(w, "| `%s` | %s | %.1f | %s | %s | %.2f | %.2f | %.2f | %s |\n",
				md.name, md.unit, 100*md.bound, cell[0], cell[1], 100*gap, 100*maxdev, 100*spread, flag)
		}
	}
	fmt.Fprintln(w)
	if failed == 0 {
		fmt.Fprintln(w, "Result: PASS — every end-to-end set-median gap is within bound/2 and every run within the bound of its set median.")
	} else {
		fmt.Fprintf(w, "Result: FAIL — %d end-to-end metric × workload pairs are flagged.\n", failed)
	}
	return failed == 0, nil
}
