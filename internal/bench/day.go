package bench

import (
	"fmt"
	"time"

	"dvm/internal/core"
	"dvm/internal/storage"
	"dvm/internal/workload"
)

// The Policy-2 retail day: basket-grained point-of-sale traffic against
// the Example 1.1 join view, maintained under Policy 2 (propagate every
// tick, partial refresh), with a customer score flip every few ticks.
// It is the workload `make profile` captures (dvmbench -exp day
// -cpuprofile) and the labeled-profile smoke test samples.
const (
	dayTicks        = 240 // baskets in the day
	dayRefreshEvery = 60  // partial refresh cadence (ticks)
	dayFlipEvery    = 40  // customer score flips (ticks)
	daySeed         = 21
)

func dayConfig(seed int64) workload.RetailConfig {
	return workload.RetailConfig{
		Customers:    1200,
		HighFraction: 0.2,
		InitialSales: 9000,
		Items:        300,
		ZipfS:        1.2,
		Seed:         seed,
	}
}

// runRetailDay drives the retail day into a fresh manager and returns
// it for metric extraction. The stream is a deterministic function of
// the seed.
func runRetailDay(seed int64) (*core.Manager, error) {
	db := storage.NewDatabase()
	w := workload.NewRetail(dayConfig(seed))
	if err := w.Setup(db); err != nil {
		return nil, err
	}
	m := core.NewManager(db)
	def, err := w.ViewDef()
	if err != nil {
		return nil, err
	}
	if _, err := m.DefineView("hv", def, core.Combined); err != nil {
		return nil, err
	}
	runner, err := m.NewRunner("hv", core.Policy{
		PropagateEvery: 1,
		RefreshEvery:   dayRefreshEvery,
		Partial:        true,
	})
	if err != nil {
		return nil, err
	}
	for tick := 1; tick <= dayTicks; tick++ {
		if err := m.Execute(w.Basket(3, 8, 0.15)); err != nil {
			return nil, err
		}
		if tick%dayFlipEvery == 0 {
			flip, err := w.ScoreFlip()
			if err != nil {
				return nil, err
			}
			if err := m.Execute(flip); err != nil {
				return nil, err
			}
		}
		if err := runner.Tick(); err != nil {
			return nil, err
		}
	}
	if err := m.Refresh("hv"); err != nil {
		return nil, err
	}
	if err := m.CheckInvariant("hv"); err != nil {
		return nil, err
	}
	return m, nil
}

// RetailDay runs the Policy-2 retail day once and reports its phase
// timings — the body behind dvmbench -exp day.
func RetailDay() (*Report, error) {
	m, err := runRetailDay(daySeed)
	if err != nil {
		return nil, err
	}
	snap := m.Obs().Snapshot()
	prop, _ := snap.Get("propagate_ns", "hv")
	down, _ := snap.Get("view_downtime_ns", "hv")
	return &Report{
		ID: "day",
		Title: fmt.Sprintf("Policy-2 retail day (Combined, %d baskets, refresh every %d)",
			dayTicks, dayRefreshEvery),
		Notes:  "the workload make profile captures; not one of the paper's experiments",
		Header: []string{"total propagate µs", "max refresh downtime µs"},
		Rows: [][]string{{
			fmt.Sprint(time.Duration(prop.Sum).Microseconds()),
			fmt.Sprint(time.Duration(down.Max).Microseconds()),
		}},
		Phases: PhasesFrom(m.Obs(), "",
			"makesafe_ns", "propagate_ns", "partial_refresh_ns", "refresh_ns", "view_downtime_ns"),
	}, nil
}
