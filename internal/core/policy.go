package core

import "fmt"

// Policy is a tick-driven refresh policy for one view (Section 5.3). The
// unit of time is an abstract tick supplied by the caller (the benchmark
// harness advances one tick per workload batch), keeping policies
// deterministic rather than wall-clock driven.
//
// Policy 1 of the paper: PropagateEvery=k, RefreshEvery=m, Partial=false.
// Policy 2: PropagateEvery=k, RefreshEvery=m, Partial=true.
type Policy struct {
	// PropagateEvery runs propagate_C every k ticks (0 disables).
	// Only meaningful for Combined views.
	PropagateEvery int
	// RefreshEvery runs the refresh step every m ticks (0 disables).
	RefreshEvery int
	// Partial selects partial_refresh_C instead of refresh_C for the
	// refresh step (Policy 2: minimal downtime, view at most k ticks
	// stale after refresh).
	Partial bool
	// OnDemand, when set, suppresses periodic refresh; the caller invokes
	// RefreshNow before querying.
	OnDemand bool
}

// Runner drives one view's policy over ticks.
type Runner struct {
	m      *Manager
	view   string
	policy Policy
	tick   int
}

// NewRunner validates the policy against the view's scenario.
func (m *Manager) NewRunner(view string, p Policy) (*Runner, error) {
	v, err := m.View(view)
	if err != nil {
		return nil, err
	}
	if p.PropagateEvery > 0 && (v.logs == nil || v.diff == nil) {
		return nil, fmt.Errorf("core: policy propagates but view %q is %s, not Combined", view, v.inv)
	}
	if p.Partial && v.diff == nil {
		return nil, fmt.Errorf("core: partial refresh needs differential tables (view %q is %s)", view, v.inv)
	}
	if p.RefreshEvery > 0 && p.PropagateEvery > p.RefreshEvery {
		return nil, fmt.Errorf("core: policy has k=%d > m=%d (paper requires m > k)", p.PropagateEvery, p.RefreshEvery)
	}
	return &Runner{m: m, view: view, policy: p}, nil
}

// Tick advances one time unit, running whatever the policy schedules at
// this tick. Propagation runs before refresh when both fall on the same
// tick (refresh_C subsumes the propagate anyway).
func (r *Runner) Tick() error {
	r.tick++
	if k := r.policy.PropagateEvery; k > 0 && r.tick%k == 0 {
		// Skip the explicit propagate when a full refresh runs this tick.
		m := r.policy.RefreshEvery
		refreshNow := m > 0 && !r.policy.OnDemand && r.tick%m == 0 && !r.policy.Partial
		if !refreshNow {
			if err := r.m.Propagate(r.view); err != nil {
				return err
			}
		}
	}
	if m := r.policy.RefreshEvery; m > 0 && !r.policy.OnDemand && r.tick%m == 0 {
		return r.RefreshNow()
	}
	return nil
}

// RefreshNow performs the policy's refresh step immediately (used for
// on-demand and on-query policies).
func (r *Runner) RefreshNow() error {
	if r.policy.Partial {
		return r.m.PartialRefresh(r.view)
	}
	return r.m.Refresh(r.view)
}

// Tick returns the current tick count.
func (r *Runner) TickCount() int { return r.tick }
