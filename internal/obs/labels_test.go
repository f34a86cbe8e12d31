package obs

import (
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
