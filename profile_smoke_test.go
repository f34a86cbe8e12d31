package dvm_test

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"strconv"
	"strings"
	"testing"
	"time"

	"dvm/internal/core"
	"dvm/internal/obs"
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
	m := retailDay(t)
	if _, err := m.View("hv"); err != nil {
		t.Fatal(err)
	}
	propagates, partials := stat(m, "propagate_ns", "hv"), stat(m, "partial_refresh_ns", "hv")
	t.Logf("retail day: %d propagates, %d partial refreshes", propagates, partials)
	if propagates == 0 || partials == 0 {
		t.Errorf("the day propagated %d times and partially refreshed %d times, want both > 0", propagates, partials)
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

// TestLabeledCPUProfile is the end-to-end check of the pprof labels
// every maintenance step installs: a CPU profile captured while the Policy-2 retail day runs
// (the workload `make profile` captures) and read back by `go tool
// pprof -raw` must contain samples labeled dvm_phase=propagate, and
// every dvm-labeled sample must carry a known phase and the view name.
// CPU profiles are statistical, so the run is sized by what it must
// observe: retail days are run until the view's propagate steps have
// taken propagateBudget between them (propagate_ns), which the ~100 Hz
// sampler lands about 30 samples in, so that none landing there is
// negligible. The test skips only when maxDays days fall short of the
// budget. A missing go command fails it.
func TestLabeledCPUProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("profiling run is not short")
	}
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		_ = f.Close()
		t.Fatal(err)
	}
	const propagateBudget, maxDays = 300 * time.Millisecond, 150
	var propagated time.Duration
	days := 0
	func() {
		defer pprof.StopCPUProfile()
		for ; days < maxDays && propagated < propagateBudget; days++ {
			m := retailDay(t)
			propagated += time.Duration(m.Obs().Histogram("propagate_ns", "hv").Sum())
		}
	}()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if propagated < propagateBudget {
		t.Skipf("%d retail days propagated for %s, short of the %s budget", days, propagated, propagateBudget)
	}

	// go test puts GOROOT/bin first on PATH, so this is the toolchain
	// that built the test.
	goCmd, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("reading the profile needs go tool pprof: %v", err)
	}
	out, err := exec.Command(goCmd, "tool", "pprof", "-raw", "-symbolize=none", path).Output()
	if err != nil {
		t.Fatalf("go tool pprof -raw: %v", err)
	}
	samples, err := parseRawSamples(string(out))
	if err != nil {
		t.Fatal(err)
	}
	// CPU time (the second value, ns) per dvm_phase value; "" holds the
	// unlabeled samples.
	byPhase := map[string]int64{}
	var total, labeled int64
	for _, s := range samples {
		byPhase[s.labels[obs.LabelPhase]] += s.cpu
		total += s.cpu
		if s.labels[obs.LabelPhase] != "" {
			labeled += s.cpu
		}
	}
	if byPhase[obs.PhasePropagate] == 0 {
		t.Errorf("no CPU samples labeled %s=%s; phase breakdown: %v",
			obs.LabelPhase, obs.PhasePropagate, byPhase)
	}
	// Any sample carrying dvm_phase must carry a valid phase value, and
	// propagate samples must also identify the view they maintain.
	valid := map[string]bool{}
	for _, ph := range obs.Phases() {
		valid[ph] = true
	}
	for ph := range byPhase {
		if ph != "" && !valid[ph] {
			t.Errorf("sample labeled with unknown phase %q", ph)
		}
	}
	for _, s := range samples {
		if s.labels[obs.LabelPhase] == obs.PhasePropagate && s.labels[obs.LabelView] != "hv" {
			t.Errorf("propagate-labeled sample missing %s=hv: %v", obs.LabelView, s.labels)
		}
	}
	t.Logf("profile of %d retail days (%s propagating): %d samples, %.1f%% of CPU labeled, breakdown %v",
		days, propagated, len(samples), 100*float64(labeled)/float64(max(total, 1)), byPhase)
}

// rawSample is one CPU sample as `go tool pprof -raw` prints it: its
// CPU time and its string labels.
type rawSample struct {
	cpu    int64
	labels map[string]string
}

// rawLabelRe matches one "key:[value]" group of a sample's label line.
var rawLabelRe = regexp.MustCompile(`(\S+):\[([^\]]*)\]`)

// parseRawSamples reads the Samples section of `go tool pprof -raw`
// output for a CPU profile: a column-header line, then per sample a
// line "count nanoseconds: location ids" and, when it has labels, an
// indented line of "key:[value]" groups. The section ends at
// "Locations".
func parseRawSamples(out string) ([]rawSample, error) {
	_, section, ok := strings.Cut(out, "\nSamples:\n")
	if !ok {
		return nil, fmt.Errorf("pprof -raw output has no Samples section:\n%s", out)
	}
	section, _, ok = strings.Cut(section, "\nLocations\n")
	if !ok {
		return nil, fmt.Errorf("pprof -raw output has no Locations section:\n%s", out)
	}
	var samples []rawSample
	for _, line := range strings.Split(section, "\n")[1:] {
		head, _, _ := strings.Cut(line, ":")
		if vals := strings.Fields(head); len(vals) == 2 {
			if _, err := strconv.ParseInt(vals[0], 10, 64); err == nil {
				cpu, err := strconv.ParseInt(vals[1], 10, 64)
				if err != nil {
					return nil, fmt.Errorf("pprof -raw sample line %q: %v", line, err)
				}
				samples = append(samples, rawSample{cpu: cpu, labels: map[string]string{}})
				continue
			}
		}
		groups := rawLabelRe.FindAllStringSubmatch(line, -1)
		if len(groups) == 0 || len(samples) == 0 {
			return nil, fmt.Errorf("pprof -raw: unexpected line %q", line)
		}
		for _, g := range groups {
			samples[len(samples)-1].labels[g[1]] = g[2]
		}
	}
	return samples, nil
}
