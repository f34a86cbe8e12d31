package dvm_test

import (
	"runtime"
	"testing"
	"time"

	"dvm/internal/algebra"
	"dvm/internal/bag"
	"dvm/internal/core"
	"dvm/internal/schema"
	"dvm/internal/storage"
	"dvm/internal/txn"
	"dvm/internal/workload"
)

// TestPolicy1DowntimeBeatsNaiveRecompute is the paper's Section 5.3
// claim as an executable assertion: over a simulated retail day, the
// measured view downtime (the view_downtime_ns histogram — time the
// MV's exclusive lock is held) of Policy 1 — hourly propagate_C plus
// one refresh_C — is strictly lower than recomputing the view from
// scratch under the lock. The base table is large (5000 initial sales,
// DefaultRetailConfig) while the day's delta is small, so refresh_C
// applies precomputed differentials where the naive baseline re-joins
// the whole database. Each variant takes the best of three trials to
// keep scheduler noise from inverting the ordering.
func TestPolicy1DowntimeBeatsNaiveRecompute(t *testing.T) {
	const (
		trials       = 3
		hoursPerDay  = 24
		salesPerHour = 40
	)

	runDay := func(naive bool) time.Duration {
		mgr, w := setupRetailDay(t)
		for hour := 0; hour < hoursPerDay; hour++ {
			if err := mgr.Execute(w.SalesBatch(salesPerHour)); err != nil {
				t.Fatal(err)
			}
			if !naive {
				if err := mgr.Propagate("hv"); err != nil {
					t.Fatal(err)
				}
			}
		}
		var err error
		if naive {
			err = mgr.RefreshRecompute("hv")
		} else {
			err = mgr.Refresh("hv")
		}
		if err != nil {
			t.Fatal(err)
		}
		m, ok := mgr.Obs().Snapshot().Get("view_downtime_ns", "hv")
		if !ok || m.Count == 0 {
			t.Fatal("view_downtime_ns{hv} not recorded")
		}
		return time.Duration(m.Max)
	}

	best := func(naive bool) time.Duration {
		min := time.Duration(1<<63 - 1)
		for i := 0; i < trials; i++ {
			if d := runDay(naive); d < min {
				min = d
			}
		}
		return min
	}

	policy1 := best(false)
	naive := best(true)
	t.Logf("max downtime: Policy 1 %v, naive recompute %v", policy1, naive)
	if policy1 >= naive {
		t.Fatalf("Policy 1 downtime %v is not strictly lower than naive recompute %v", policy1, naive)
	}
}

// setupRetailDay builds a fresh retail database with a Combined-scenario
// view over it, ready for one simulated day of transactions.
func setupRetailDay(t *testing.T) (*core.Manager, *workload.Retail) {
	t.Helper()
	db := storage.NewDatabase()
	w := workload.NewRetail(workload.DefaultRetailConfig())
	if err := w.Setup(db); err != nil {
		t.Fatal(err)
	}
	mgr := core.NewManager(db)
	def, err := w.ViewDef()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.DefineView("hv", def, core.Combined); err != nil {
		t.Fatal(err)
	}
	return mgr, w
}

// TestPartialRefreshAllocatesByDifferentialNotView is the count-based
// shape of the same claim: the exclusive section of partial_refresh_C
// does work proportional to |∇MV|+|△MV|, not to |MV|. The same 50-tuple
// differential is applied to a view and to one ten times larger, and
// the bytes PartialRefresh allocates must agree within 1.2x — a
// whole-view copy under the lock (bag.Monus / bag.UnionAll / Clone of
// MV, as the compiled apply program once did) costs the larger view ten
// times more and fails this at once. Every row has multiplicity 2 and
// the differential only moves multiplicities, so MV's map never gains a
// key and cannot grow mid-measurement.
func TestPartialRefreshAllocatesByDifferentialNotView(t *testing.T) {
	const diff = 50
	sch := schema.NewSchema(schema.Col("id", schema.TInt), schema.Col("v", schema.TInt))
	partialBytes := func(rows int) uint64 {
		db := storage.NewDatabase()
		tb, err := db.Create("r", sch, storage.External)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			if err := tb.Insert(schema.Row(i, i%7), 2); err != nil {
				t.Fatal(err)
			}
		}
		def, err := algebra.NewSelect(algebra.Cmp{Op: algebra.GE, L: algebra.A("id"), R: algebra.C(0)},
			algebra.NewBase("r", sch))
		if err != nil {
			t.Fatal(err)
		}
		mgr := core.NewManager(db)
		if _, err := mgr.DefineView("v", def, core.Combined); err != nil {
			t.Fatal(err)
		}
		best := ^uint64(0)
		for round := 0; round < 3; round++ {
			del, ins := bag.New(), bag.New()
			for i := 0; i < diff/2; i++ {
				del.Add(schema.Row(2*i, 2*i%7), 1)
				ins.Add(schema.Row(2*i+1, (2*i+1)%7), 1)
			}
			if round%2 == 1 {
				del, ins = ins, del // put the multiplicities back
			}
			if err := mgr.Execute(txn.Txn{"r": {Delete: del, Insert: ins}}); err != nil {
				t.Fatal(err)
			}
			if err := mgr.Propagate("v"); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := mgr.PartialRefresh("v"); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			if err := mgr.CheckConsistent("v"); err != nil {
				t.Fatal(err)
			}
			if d := after.TotalAlloc - before.TotalAlloc; d < best {
				best = d
			}
		}
		return best
	}

	small, large := partialBytes(2000), partialBytes(20000)
	t.Logf("PartialRefresh of a %d-tuple differential: %d B on a 2000-row view, %d B on a 20000-row view", diff, small, large)
	if float64(large) > 1.2*float64(small) {
		t.Fatalf("PartialRefresh allocated %d B on the 10x larger view vs %d B: more than 1.2x — an O(|MV|) copy is back under the lock", large, small)
	}
}
