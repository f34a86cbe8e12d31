package dvm_test

import (
	"bytes"
	"runtime/pprof"
	"testing"

	"dvm/internal/core"
	"dvm/internal/obs"
	"dvm/internal/obs/profparse"
	"dvm/internal/obs/trace"
	"dvm/internal/storage"
	"dvm/internal/workload"
)

// retailDay runs the Policy-2 retail day once: basket-grained
// point-of-sale traffic against the Example 1.1 join view "hv",
// maintained under Policy 2 (propagate every tick, partial refresh
// every 60), with a customer score flip every 40 ticks, then a final
// refresh and invariant check. The stream is a deterministic function
// of the seed. It is the workload `make profile` captures
// (BenchmarkRetailDay) and TestLabeledCPUProfile samples. It returns
// the manager the day ran on.
func retailDay(tb testing.TB) *core.Manager {
	tb.Helper()
	const ticks, refreshEvery, flipEvery = 240, 60, 40
	db := storage.NewDatabase()
	w := workload.NewRetail(workload.RetailConfig{
		Customers: 1200, HighFraction: 0.2, InitialSales: 9000, Items: 300, ZipfS: 1.2, Seed: 21,
	})
	if err := w.Setup(db); err != nil {
		tb.Fatal(err)
	}
	m := core.NewManager(db)
	def, err := w.ViewDef()
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := m.DefineView("hv", def, core.Combined); err != nil {
		tb.Fatal(err)
	}
	runner, err := m.NewRunner("hv", core.Policy{PropagateEvery: 1, RefreshEvery: refreshEvery, Partial: true})
	if err != nil {
		tb.Fatal(err)
	}
	for tick := 1; tick <= ticks; tick++ {
		if err := m.Execute(w.Basket(3, 8, 0.15)); err != nil {
			tb.Fatal(err)
		}
		if tick%flipEvery == 0 {
			flip, err := w.ScoreFlip()
			if err != nil {
				tb.Fatal(err)
			}
			if err := m.Execute(flip); err != nil {
				tb.Fatal(err)
			}
		}
		if err := runner.Tick(); err != nil {
			tb.Fatal(err)
		}
	}
	if err := m.Refresh("hv"); err != nil {
		tb.Fatal(err)
	}
	if err := m.CheckInvariant("hv"); err != nil {
		tb.Fatal(err)
	}
	return m
}

// TestRetailDayRuns checks the profiled day does the maintenance it
// names: the runner propagated and partially refreshed the view.
func TestRetailDayRuns(t *testing.T) {
	v, err := retailDay(t).View("hv")
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("retail day: %d propagates, %d partial refreshes", v.Stats.Propagates, v.Stats.PartialCount)
	if v.Stats.Propagates == 0 || v.Stats.PartialCount == 0 {
		t.Errorf("the day propagated %d times and partially refreshed %d times, want both > 0", v.Stats.Propagates, v.Stats.PartialCount)
	}
}

// TestTracedRetailRunProducesValidChrome captures every maintenance
// transaction of a short Policy-1 retail run (hourly sales batches,
// each propagated, one refresh at close) and checks that the ring
// exports as Chrome trace-event JSON ParseChrome accepts, one lane per
// captured trace.
func TestTracedRetailRunProducesValidChrome(t *testing.T) {
	const hours = 4
	db, w := claimRetail(t, 1, 1.2)
	m := core.NewManager(db)
	def, err := w.ViewDef()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.DefineView("hv", def, core.Combined); err != nil {
		t.Fatal(err)
	}
	m.Tracer().SampleAll()
	for hour := 0; hour < hours; hour++ {
		if err := m.Execute(w.SalesBatch(10)); err != nil {
			t.Fatal(err)
		}
		if err := m.Propagate("hv"); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Refresh("hv"); err != nil {
		t.Fatal(err)
	}
	traces := m.Tracer().Last(0)
	if len(traces) != 2*hours+1 {
		t.Fatalf("captured %d traces, want one per maintenance transaction: %d", len(traces), 2*hours+1)
	}
	data, err := trace.ChromeJSON(traces)
	if err != nil {
		t.Fatal(err)
	}
	events, err := trace.ParseChrome(data)
	if err != nil {
		t.Fatal(err)
	}
	lanes := map[int64]bool{}
	for _, ev := range events {
		lanes[ev.Tid] = true
	}
	if len(lanes) != len(traces) {
		t.Errorf("chrome export has %d lanes for %d traces", len(lanes), len(traces))
	}
}

// TestLabeledCPUProfile is the end-to-end check of the pprof-label
// plumbing: a CPU profile captured while the Policy-2 retail day runs
// (the workload `make profile` captures) must contain samples labeled
// dvm_phase=propagate, and every dvm-labeled sample must carry a known
// phase and the view name. CPU profiles are statistical, so when the
// run is too quick to be sampled at all the test skips rather than
// flakes; with samples present, the labels must be there.
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
	func() {
		defer pprof.StopCPUProfile()
		for i := 0; i < 3; i++ {
			retailDay(t)
		}
	}()

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
		len(p.Samples), 100*float64(st.Labeled)/float64(max(st.Total, 1)), st.ByValue)
}
