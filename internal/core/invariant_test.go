package core

import (
	"strings"
	"testing"

	"dvm/internal/bag"
	"dvm/internal/schema"
	"dvm/internal/txn"
)

// brokenView defines the Example 1.1 view under sc and leaves every
// table of its Figure 1 tuple non-empty where the scenario has it: two
// High sales inserted, and for Combined one of them propagated, so the
// logs and the differential tables both hold something.
func brokenView(t *testing.T, sc Scenario, opts ...Option) (*Manager, *View) {
	t.Helper()
	db, def := retailDB(t)
	m := NewManager(db)
	v, err := m.DefineView("hv", def, sc, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range []schema.Tuple{saleRow(0, 99, 5), saleRow(2, 98, 1)} {
		if err := m.Execute(txn.Insert("sales", bag.Of(row))); err != nil {
			t.Fatal(err)
		}
		if i == 0 && sc == Combined {
			if err := m.Propagate("hv"); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := m.CheckInvariant("hv"); err != nil {
		t.Fatalf("%v before any corruption: %v", sc, err)
	}
	return m, v
}

// TestCheckInvariantRejectsBrokenStates: CheckInvariant is the oracle
// every maintenance test leans on, so it must reject a broken state, not
// only accept a sound one. Each case corrupts one table of the view's
// Figure 1 tuple — one tuple added where it changes the invariant's side
// the table is on — and must get the scenario's INV_ error; the
// minimality cases add a tuple that leaves the invariant true and must
// get the minimality error of Section 5.2 (with strong minimality, §4.1).
func TestCheckInvariantRejectsBrokenStates(t *testing.T) {
	inSales := schema.Row(2, 2, 2, 2.0)             // a sales row of retailDB that reaches the view
	newSale := saleRow(4, 77, 3)                    // a High sale sales does not hold
	strange := schema.Row(9, 999, 1, 0.5)           // a sale sales does not hold
	notInMV := schema.Row(1, "nobody", "Low", 1, 1) // a view row MV does not hold
	inMV := func(v *View) schema.Tuple {
		var row schema.Tuple
		v.mv.Data().Each(func(tu schema.Tuple, _ int) { row = tu })
		return row
	}
	cases := []struct {
		name    string
		has     func(v *View) bool
		opts    []Option
		corrupt func(v *View)
		want    func(v *View) string
	}{
		{"MV", func(*View) bool { return true }, nil,
			func(v *View) { v.mv.Data().Add(notInMV, 1) }, invError},
		{"▲R", hasLogs, nil,
			func(v *View) { v.logs["sales"].add.Data().Add(inSales, 1) }, invError},
		{"▼R", hasLogs, nil,
			func(v *View) { v.logs["sales"].del.Data().Add(newSale, 1) }, invError},
		{"∇MV", hasDiff, nil,
			func(v *View) { v.diff.del.Data().Add(inMV(v), 1) }, invError},
		{"△MV", hasDiff, nil,
			func(v *View) { v.diff.add.Data().Add(notInMV, 1) }, invError},
		{"▲R ⋢ R", hasLogs, nil,
			func(v *View) { v.logs["sales"].add.Data().Add(strange, 1) },
			func(*View) string { return "minimality violated for \"hv\": ▲sales ⋢ sales" }},
		{"∇MV ⋢ MV", hasDiff, nil,
			func(v *View) { v.diff.del.Data().Add(notInMV, 1) },
			func(*View) string { return "minimality violated for \"hv\": ∇MV ⋢ MV" }},
		{"∇MV min △MV ≠ ∅", hasDiff, []Option{WithStrongMinimality()},
			func(v *View) {
				row := inMV(v)
				v.diff.del.Data().Add(row, 1)
				v.diff.add.Data().Add(row, 1)
			},
			func(*View) string { return "strong minimality violated for \"hv\": ∇MV min △MV ≠ ∅" }},
	}
	checked := 0
	for _, sc := range []Scenario{Immediate, BaseLogs, DiffTables, Combined} {
		for _, c := range cases {
			m, v := brokenView(t, sc, c.opts...)
			if !c.has(v) {
				continue
			}
			checked++
			c.corrupt(v)
			err := m.CheckInvariant("hv")
			if err == nil || !strings.Contains(err.Error(), c.want(v)) {
				t.Errorf("%v, %s corrupted: CheckInvariant = %v, want an error containing %q", sc, c.name, err, c.want(v))
			}
		}
	}
	// IM has MV; BL adds ▲R, ▼R and ▲R ⋢ R; DT adds ∇MV, △MV and their
	// two minimality cases; C has all eight.
	if checked != 1+4+5+8 {
		t.Fatalf("%d corruptions checked, want 18", checked)
	}
}

func hasLogs(v *View) bool { return v.logs != nil }
func hasDiff(v *View) bool { return v.diff != nil }

// invError is the start of the error a view's broken Figure 1 invariant
// gets: INV_IM, INV_BL, INV_DT or INV_C.
func invError(v *View) string { return "INV_" + v.Scenario.String() + " violated for \"hv\"" }
