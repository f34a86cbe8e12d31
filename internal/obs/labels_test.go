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
	if d := rg.End(); d < time.Millisecond {
		t.Fatalf("region measured %v, want >= 1ms", d)
	}

	alloc, ok := r.Snapshot().Get("phase_alloc_bytes", "hv/propagate")
	if !ok {
		t.Fatal("phase_alloc_bytes{hv/propagate} not registered")
	}
	if alloc.Value < 0 {
		t.Fatalf("phase_alloc_bytes = %d, want >= 0", alloc.Value)
	}
}

func TestPhaseAcctNilAndNegative(t *testing.T) {
	StartRegion(nil, "hv", PhasePropagate).End() // must not panic
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
		"StartRegion+End of a viewless makesafe":  func() { StartRegion(nil, "", PhaseMakesafe).End() },
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
