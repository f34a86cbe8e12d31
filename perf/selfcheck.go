package main

import (
	"fmt"
	"io"
	"math"
)

// selfCheck proves, at 1/50 scale, the two properties every number of the
// benchmark rests on. Determinism: the same seed generates the identical
// op list (hash), attempts the same number of ops, reaches the same
// aux_tuples_peak and allocates within 0.5 % per op. Stationarity: run
// checks the table, view, log and differential-table sizes against the
// generator's model at every cycle boundary and fails the run on any
// difference — so a run that returns correct has been stationary. A
// second seed, traced, must run clean as well. It returns, per workload,
// the first untraced and the traced result (the smoke test holds their
// metric names against BENCHMARK.json).
func selfCheck(w io.Writer) (untraced, traced []*result, err error) {
	const div, cycles = 50, 2
	for _, sp := range specs {
		cfg := config{sp: sp.scaled(div, cycles), seed: 1, cycles: cycles, builds: 2, log: io.Discard}
		a, b := run(cfg), run(cfg)
		cfg.seed, cfg.trace = 2, true
		c := run(cfg)
		for _, r := range []*result{a, b, c} {
			if !r.Correct {
				return nil, nil, fmt.Errorf("%s: %w", sp.name, r.err)
			}
		}
		if a.opHash != b.opHash {
			return nil, nil, fmt.Errorf("%s: same seed, op-list hash %x then %x", sp.name, a.opHash, b.opHash)
		}
		if a.opHash == c.opHash {
			return nil, nil, fmt.Errorf("%s: seeds 1 and 2 generated the same op list", sp.name)
		}
		if a.Attempted != b.Attempted || a.Attempted != c.Attempted {
			return nil, nil, fmt.Errorf("%s: %d, %d and %d ops attempted", sp.name, a.Attempted, b.Attempted, c.Attempted)
		}
		if x, y := a.Metrics["aux_tuples_peak"].Value, b.Metrics["aux_tuples_peak"].Value; x != y {
			return nil, nil, fmt.Errorf("%s: same seed, aux_tuples_peak %v then %v", sp.name, x, y)
		}
		x, y := a.Metrics["allocs_per_op"].Value, b.Metrics["allocs_per_op"].Value
		if math.Abs(x-y) > 0.005*x {
			return nil, nil, fmt.Errorf("%s: same seed, allocs_per_op %v then %v (more than 0.5 %% apart)", sp.name, x, y)
		}
		fmt.Fprintf(w, "%-18s ops=%d hash=%016x aux_tuples_peak=%v allocs_per_op=%.2f/%.2f second seed ok\n",
			sp.name, a.Attempted, a.opHash, a.Metrics["aux_tuples_peak"].Value, x, y)
		untraced, traced = append(untraced, a), append(traced, c)
	}
	return untraced, traced, nil
}
