package bench

import (
	"fmt"
	"time"

	"dvm/internal/bag"
	"dvm/internal/core"
	"dvm/internal/storage"
	"dvm/internal/workload"
)

// The compiled-vs-interpreted retail day: the serial Combined manager
// under Policy 2 (propagate every tick, partial refresh), run twice
// over identical same-seed streams — once with compiled delta programs
// (the default) and once forced onto the tree-walking interpreter
// (core.WithInterpretedDeltas). The day is replayed at growing base
// sizes because the compiler's win is asymptotic: interpreted joins
// enumerate |delta|·|base| candidate pairs, compiled joins hash-probe
// the base-side index with the delta only.
const (
	compiledDayTicks        = 120
	compiledDayRefreshEvery = 30
	compiledDayFlipEvery    = 40
	compiledDaySeed         = 33
)

func compiledDayConfig(scale int, seed int64) workload.RetailConfig {
	return workload.RetailConfig{
		Customers:    300 * scale,
		HighFraction: 0.2,
		InitialSales: 3000 * scale,
		Items:        100 * scale,
		ZipfS:        1.2,
		Seed:         seed,
	}
}

// runCompiledDay drives the retail day into one serial manager at the
// given base-size scale, interpreted or compiled, and returns the
// manager for metric extraction. The workload stream is a
// deterministic function of the seed, so both evaluation modes replay
// the identical day.
func runCompiledDay(scale int, interpreted bool, seed int64) (*core.Manager, error) {
	db := storage.NewDatabase()
	w := workload.NewRetail(compiledDayConfig(scale, seed))
	if err := w.Setup(db); err != nil {
		return nil, err
	}
	var opts []core.ManagerOption
	if interpreted {
		opts = append(opts, core.WithInterpretedDeltas())
	}
	m := core.NewManager(db, opts...)
	def, err := w.ViewDef()
	if err != nil {
		return nil, err
	}
	if _, err := m.DefineView("hv", def, core.Combined); err != nil {
		return nil, err
	}
	runner, err := m.NewRunner("hv", core.Policy{
		PropagateEvery: 1,
		RefreshEvery:   compiledDayRefreshEvery,
		Partial:        true,
	})
	if err != nil {
		return nil, err
	}
	for tick := 1; tick <= compiledDayTicks; tick++ {
		if err := m.Execute(w.Basket(3, 8, 0.15)); err != nil {
			return nil, err
		}
		if tick%compiledDayFlipEvery == 0 {
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

// E16CompiledPrograms runs the compiled-vs-interpreted retail day at
// base-size scales 1, 2, and 4 and reports the propagate-phase win.
// The speedup column is the interpreted day's total propagate time
// divided by the compiled day's at the same scale; it should grow with
// scale, since the interpreter's join cost tracks |delta|·|base| while
// the compiled programs' tracks |delta| probes plus index upkeep.
func E16CompiledPrograms() (*Report, error) {
	rep := &Report{
		ID: "E16",
		Title: fmt.Sprintf("Compiled delta programs vs interpreter (Combined, Policy 2, %d baskets, refresh every %d)",
			compiledDayTicks, compiledDayRefreshEvery),
		Notes: "speedup = interpreted propagate_ns sum / compiled, same seed and stream; compiled joins hash-probe base-side indexes instead of enumerating |delta|x|base| pairs",
		Header: []string{"scale", "sales rows", "interp propagate µs", "compiled propagate µs", "speedup",
			"compiled txn p99 µs", "index probe tuples"},
	}
	for _, scale := range []int{1, 2, 4} {
		interp, err := runCompiledDay(scale, true, compiledDaySeed)
		if err != nil {
			return nil, err
		}
		comp, err := runCompiledDay(scale, false, compiledDaySeed)
		if err != nil {
			return nil, err
		}
		// Same stream, same final state: the comparison is honest only
		// if both days ended on the identical materialization.
		err = interp.Read("hv", func(mvI *bag.Bag) error {
			return comp.Read("hv", func(mvC *bag.Bag) error {
				if !mvI.Equal(mvC) {
					return fmt.Errorf("bench: scale %d: compiled and interpreted MVs diverged", scale)
				}
				return nil
			})
		})
		if err != nil {
			return nil, err
		}
		snapI := interp.Obs().Snapshot()
		snapC := comp.Obs().Snapshot()
		propI, _ := snapI.Get("propagate_ns", "hv")
		propC, _ := snapC.Get("propagate_ns", "hv")
		txnC, _ := snapC.Get("txn_exec_ns", "")
		probes, _ := snapC.Get("index_probe_tuples", "hv")
		speedup := "n/a"
		if propC.Sum > 0 {
			speedup = fmt.Sprintf("%.2fx", float64(propI.Sum)/float64(propC.Sum))
		}
		sales, err := comp.DB().Bag("sales")
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprint(scale),
			fmt.Sprint(sales.Len()),
			fmt.Sprint(time.Duration(propI.Sum).Microseconds()),
			fmt.Sprint(time.Duration(propC.Sum).Microseconds()),
			speedup,
			fmt.Sprint(time.Duration(txnC.P99).Microseconds()),
			fmt.Sprint(probes.Value),
		})
		rep.Phases = append(rep.Phases, PhasesFrom(interp.Obs(),
			fmt.Sprintf("interp x%d:", scale),
			"txn_exec_ns", "propagate_ns", "partial_refresh_ns", "view_downtime_ns")...)
		rep.Phases = append(rep.Phases, PhasesFrom(comp.Obs(),
			fmt.Sprintf("compiled x%d:", scale),
			"txn_exec_ns", "propagate_ns", "compiled_eval_ns", "partial_refresh_ns", "view_downtime_ns")...)
	}
	return rep, nil
}
