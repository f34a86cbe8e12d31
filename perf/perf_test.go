package main

import (
	"encoding/json"
	"io"
	"os"
	"regexp"
	"sort"
	"testing"
)

// benchmarkJSON is the shape of ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

func keys(m map[string]value) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSmoke is `perf -selfcheck` — every workload at 1/50 scale for two
// cycles, twice on one seed (same op list, op count, aux_tuples_peak and
// allocations; stationary at every cycle boundary) and once traced on a
// second seed, verification on — and holds what the runs emit against
// BENCHMARK.json: workload names, metric names, units, directions and
// bounds must agree 1:1, so the contract file cannot drift from the code.
func TestSmoke(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the specs are sized for %d", bj.RunSeconds, defaultSeconds)
	}
	if len(bj.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(bj.Workloads), len(specs))
	}
	for i, sp := range specs {
		if w := bj.Workloads[i]; w.Name != sp.name || w.Why != sp.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, w.Name, w.Why, sp.name, sp.why)
		}
		if !nameRE.MatchString(sp.name) {
			t.Errorf("workload name %q is outside the contract's alphabet", sp.name)
		}
	}
	check := func(kind string, js []jsonMetric, defs []metricDef, bounded bool) (names []string) {
		if len(js) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(js), len(defs))
		}
		for i, d := range defs {
			j := js[i]
			if !nameRE.MatchString(d.name) {
				t.Errorf("%s: metric name %q is outside the contract's alphabet", kind, d.name)
			}
			if j.Name != d.name || j.Unit != d.unit || j.Better != d.better {
				t.Errorf("%s metric %d: BENCHMARK.json has %s/%s/%s, the benchmark %s/%s/%s",
					kind, i, j.Name, j.Unit, j.Better, d.name, d.unit, d.better)
			}
			if bounded != (j.Bound != nil) || (bounded && *j.Bound != d.bound) {
				t.Errorf("%s metric %s: bound in BENCHMARK.json does not match the benchmark's %v", kind, d.name, d.bound)
			}
			names = append(names, d.name)
		}
		sort.Strings(names)
		return names
	}
	e2eNames := check("end_to_end", bj.EndToEnd, endToEnd, true)
	layerNames := check("per_layer", bj.PerLayer, perLayer, false)

	untraced, traced, err := selfCheck(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for i, sp := range specs {
		if got := keys(untraced[i].Metrics); !equalStrings(got, e2eNames) {
			t.Errorf("%s emitted %v, BENCHMARK.json lists %v", sp.name, got, e2eNames)
		}
		for _, d := range endToEnd {
			if v := untraced[i].Metrics[d.name].Value; !(v > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", sp.name, d.name, v)
			}
		}
		if got := keys(traced[i].Metrics); !equalStrings(got, layerNames) {
			t.Errorf("%s (traced) emitted %v, BENCHMARK.json lists %v", sp.name, got, layerNames)
		}
		total := 0.0
		for _, b := range traced[i].budget {
			total += b.Share
		}
		if total < 0.98 || total > 1.02 {
			t.Errorf("%s: budget sums to %.1f %% of day_ms, want 100 ± 2", sp.name, 100*total)
		}
	}
}
