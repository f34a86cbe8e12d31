package dvm_test

import (
	"bytes"
	"runtime/pprof"
	"testing"

	"dvm/internal/bench"
	"dvm/internal/obs"
	"dvm/internal/obs/profparse"
)

// TestLabeledCPUProfile is the end-to-end check of the pprof-label
// plumbing: a CPU profile captured while the Policy-2 retail day runs
// (the same workload `dvmbench -exp day -cpuprofile` profiles) must
// contain samples labeled dvm_phase=propagate, and
// every dvm-labeled sample must carry a known phase and the view name.
// CPU profiles are statistical, so when the run is too quick to be
// sampled at all the test skips rather than flakes; with samples
// present, the labels must be there.
func TestLabeledCPUProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("profiling run is not short")
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	// Three retail days ≈ several hundred milliseconds of
	// maintenance-heavy CPU — enough for the ~100Hz sampler to land
	// multiple samples inside the propagate regions.
	for i := 0; i < 3; i++ {
		if _, err := bench.RetailDay(); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()

	p, err := profparse.Parse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Samples) == 0 {
		t.Skip("profiler captured no samples (machine too fast or clock too coarse)")
	}
	st := p.Attribution(1, obs.LabelPhase, obs.LabelPhase)
	if st.ByValue[obs.PhasePropagate] == 0 {
		t.Errorf("no CPU samples labeled %s=%s; phase breakdown: %v",
			obs.LabelPhase, obs.PhasePropagate, st.ByValue)
	}
	// Any sample carrying dvm_phase must carry a valid phase value, and
	// propagate samples must also identify the view they maintain.
	valid := map[string]bool{}
	for _, ph := range obs.Phases() {
		valid[ph] = true
	}
	for ph := range st.ByValue {
		if ph != "" && !valid[ph] {
			t.Errorf("sample labeled with unknown phase %q", ph)
		}
	}
	for _, s := range p.Samples {
		if s.Labels[obs.LabelPhase] == obs.PhasePropagate && s.Labels[obs.LabelView] != "hv" {
			t.Errorf("propagate-labeled sample missing %s=hv: %v", obs.LabelView, s.Labels)
		}
	}
	t.Logf("profile: %d samples, %.1f%% of CPU labeled, breakdown %v",
		len(p.Samples), 100*float64(st.Labeled)/float64(max64(st.Total, 1)), st.ByValue)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
