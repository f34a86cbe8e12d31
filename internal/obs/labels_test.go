package obs

import (
	"runtime/pprof"
	"testing"
	"time"
)

func TestRegionAccounting(t *testing.T) {
	r := NewRegistry()
	acct := NewPhaseAcct(r, "hv", PhasePropagate)
	rg := StartRegion(acct, "hv", PhasePropagate)
	// Burn a little time and allocation inside the region.
	time.Sleep(time.Millisecond)
	sink := make([]byte, 1<<16)
	_ = sink
	rg.End()

	snap := r.Snapshot()
	cpu, ok := snap.Get("phase_cpu_ns", "hv/propagate")
	if !ok {
		t.Fatal("phase_cpu_ns{hv/propagate} not registered")
	}
	if cpu.Value < int64(time.Millisecond) {
		t.Fatalf("phase_cpu_ns = %d, want >= 1ms", cpu.Value)
	}
	alloc, ok := snap.Get("phase_alloc_bytes", "hv/propagate")
	if !ok {
		t.Fatal("phase_alloc_bytes{hv/propagate} not registered")
	}
	if alloc.Value < 0 {
		t.Fatalf("phase_alloc_bytes = %d, want >= 0", alloc.Value)
	}
}

func TestPhaseAcctNilAndNegative(t *testing.T) {
	var nilAcct *PhaseAcct
	nilAcct.Add(100, 100) // must not panic
	StartRegion(nil, "hv", PhasePropagate).End()

	r := NewRegistry()
	acct := NewPhaseAcct(r, "hv", PhaseMakesafe)
	acct.Add(-5, -5)
	if v := acct.CPU.Load(); v != 0 {
		t.Fatalf("negative cpu recorded: %d", v)
	}
	acct.Add(7, 9)
	if v, a := acct.CPU.Load(), acct.Alloc.Load(); v != 7 || a != 9 {
		t.Fatalf("Add(7,9) -> cpu=%d alloc=%d", v, a)
	}
}

// TestRegionAllocatesNothing: a region costs no allocation — not its
// labels, which are built once per (view, phase) on the PhaseAcct or
// once per phase without a view, and not its allocation readings, which
// go into one preallocated sample. A region spans a propagate of a few
// rows; one that allocated would show in every write's bytes.
func TestRegionAllocatesNothing(t *testing.T) {
	acct := NewPhaseAcct(NewRegistry(), "hv", PhasePropagate)
	cases := map[string]func(){
		"StartRegion+End on the pair's PhaseAcct": func() { StartRegion(acct, "hv", PhasePropagate).End() },
		"StartRegion+End without a PhaseAcct":     func() { StartRegion(nil, "", PhasePropagate).End() },
		"SetPhaseLabels and its restore":          func() { SetPhaseLabels("", PhaseMakesafe)() },
		"HeapAllocBytes":                          func() { HeapAllocBytes() },
	}
	for name, f := range cases {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s: %v allocations, want 0", name, n)
		}
	}
	// Each region gets the labels it names: the PhaseAcct's own set only
	// when the acct is that pair's, and a set built for it otherwise.
	for _, c := range []struct {
		acct        *PhaseAcct
		view, phase string
	}{
		{acct, "hv", PhasePropagate},
		{acct, "other", PhasePropagate},
		{acct, "hv", PhaseRefresh},
		{nil, "", PhaseMakesafe},
		{nil, "hv", PhaseRefresh},
	} {
		ctx := labelsFor(c.acct, c.view, c.phase)
		view, hasView := pprof.Label(ctx, LabelView)
		phase, _ := pprof.Label(ctx, LabelPhase)
		if view != c.view || hasView != (c.view != "") || phase != c.phase {
			t.Errorf("labels for (%q, %q): view %q, phase %q", c.view, c.phase, view, phase)
		}
	}
}

func TestHeapAllocBytesMonotone(t *testing.T) {
	a := HeapAllocBytes()
	buf := make([]byte, 1<<20)
	_ = buf
	b := HeapAllocBytes()
	if b < a {
		t.Fatalf("cumulative allocation went backwards: %d -> %d", a, b)
	}
}

func TestPhasesStable(t *testing.T) {
	want := []string{"makesafe", "propagate", "refresh", "partial_refresh", "recompute"}
	got := Phases()
	if len(got) != len(want) {
		t.Fatalf("Phases() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Phases()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}
