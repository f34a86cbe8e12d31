package algebra

import (
	"testing"

	"dvm/internal/schema"
)

// The FuzzLogFilter seeds: each decodes (exprDecoder, NewRandomUniverse(3))
// to a join Π(σ_p(L × R)) over R0 and the state after it.
var (
	// σ_{a=1}(R0) joined with an unguarded R0 on l.a = r.a: R0 has a
	// guarded and an unguarded occurrence, so it gets no filter.
	seedSelfJoinUnguarded = []byte{11, 2, 1, 1, 0, 0, 3, 0, 3, 0, 3, 0, 0, 3, 0, 0, 0, 0, 2, 0, 3,
		4, 1, 0, 0, 1, 1, 1, 0, 0, 0, 2, 3, 1, 0, 0}
	// ρ_l(R0) × ρ_r(R0) under l.a = 1 ∧ r.b = 2 ∧ l.a = r.a: two
	// occurrences guarded by different conjuncts, so R0's filter is their
	// OR, each bound at its renaming.
	seedSelfJoinOr = []byte{11, 0, 3, 0, 3, 0, 2, 3, 0, 0, 1, 3, 3, 0, 3, 2, 3, 3, 0, 0, 0, 0, 2, 0, 3,
		5, 1, 0, 0, 1, 2, 1, 0, 1, 0, 2, 2, 2, 1, 0, 0, 0, 0}
	// ρ_l(R0) × R1 under l.b < 2 ∧ a = 3 ∧ l.a = b: R0 renamed, R1 read
	// under its own names, each guarded by one side-local conjunct.
	seedRenamedBase = []byte{11, 0, 3, 0, 7, 1, 2, 3, 2, 1, 2, 3, 3, 0, 2, 3, 3, 3, 0, 0, 0, 0, 3, 0, 2,
		3, 0, 1, 0, 1, 3, 0, 2, 0, 1, 4, 3, 0, 0, 3, 3, 1, 0, 1, 0, 0}
)

// TestRelevantFiltersOfTheSeeds pins what the derivation makes of each
// FuzzLogFilter seed, by the tuples each filter keeps.
func TestRelevantFiltersOfTheSeeds(t *testing.T) {
	uni := NewRandomUniverse(3)
	keeps := func(t *testing.T, f Predicate, rows ...[2]int) []bool {
		t.Helper()
		fn, err := f.Bind(uni.Sch)
		if err != nil {
			t.Fatal(err)
		}
		var out []bool
		for _, r := range rows {
			out = append(out, fn(schema.Row(r[0], r[1])))
		}
		return out
	}
	decode := func(seed []byte) (Expr, map[string]Predicate) {
		q := (&exprDecoder{data: seed, uni: uni}).expr(5)
		return q, RelevantFilters(q)
	}

	if q, fs := decode(seedSelfJoinUnguarded); len(fs) != 0 {
		t.Errorf("%s: filters %v, want none (R0 has an unguarded occurrence)", q, fs)
	}

	q, fs := decode(seedSelfJoinOr)
	f, ok := fs["R0"].(Or)
	if len(fs) != 1 || !ok || len(f.Preds) != 2 {
		t.Fatalf("%s: filters %v, want R0's, an OR of two", q, fs)
	}
	// a = 1 OR b = 2
	if got := keeps(t, f, [2]int{1, 0}, [2]int{0, 2}, [2]int{0, 1}, [2]int{2, 2}); got[0] != true || got[1] != true || got[2] != false || got[3] != true {
		t.Errorf("%s: R0's filter %s keeps %v of (1,0) (0,2) (0,1) (2,2), want true true false true", q, f, got)
	}

	q, fs = decode(seedRenamedBase)
	if len(fs) != 2 || fs["R0"] == nil || fs["R1"] == nil {
		t.Fatalf("%s: filters %v, want R0's and R1's", q, fs)
	}
	// R0: l.b < 2 at ρ_l(R0), the table's b < 2.
	if got := keeps(t, fs["R0"], [2]int{3, 1}, [2]int{0, 2}); got[0] != true || got[1] != false {
		t.Errorf("%s: R0's filter %s keeps %v of (3,1) (0,2), want true false", q, fs["R0"], got)
	}
	// R1: a = 3.
	if got := keeps(t, fs["R1"], [2]int{3, 0}, [2]int{0, 3}); got[0] != true || got[1] != false {
		t.Errorf("%s: R1's filter %s keeps %v of (3,0) (0,3), want true false", q, fs["R1"], got)
	}
}

// FuzzLogFilter holds RelevantFilters to its contract on decoded queries
// and states (the exprDecoder of FuzzExprParseEval): for every table R
// with a derived filter f, Q ≡ Q[σ_f(R)/R] — and with every such table
// filtered at once. The equivalence is checked by the interpreter on the
// decoded state, which the fuzzer chooses along with the query.
func FuzzLogFilter(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0, 1, 3, 7, 2})
	f.Add([]byte{7, 1, 1, 1, 8, 10, 5, 0, 3, 3, 9, 2, 6, 6})
	f.Add(seedSelfJoinUnguarded)
	f.Add(seedSelfJoinOr)
	f.Add(seedRenamedBase)

	f.Fuzz(func(t *testing.T, data []byte) {
		d := &exprDecoder{data: data, uni: NewRandomUniverse(3)}
		q := d.expr(5)
		st := d.state()
		if sizeBound(q, st) > 1e12 {
			t.Skip("multiplicities could overflow")
		}
		want, err := Eval(q, st)
		if err != nil {
			t.Fatalf("Eval(%s): %v", q, err)
		}
		check := func(repl map[string]Expr) {
			t.Helper()
			sub, err := Substitute(q, repl)
			if err != nil {
				t.Fatalf("Substitute(%s, %v): %v", q, repl, err)
			}
			got, err := Eval(sub, st)
			if err != nil {
				t.Fatalf("Eval(%s): %v", sub, err)
			}
			if !got.Equal(want) {
				t.Fatalf("a derived filter changes the query:\n  Q:          %s\n  filtered:   %s\n  Q:          %s\n  filtered Q: %s",
					q, sub, want, got)
			}
		}
		all := map[string]Expr{}
		for name, p := range RelevantFilters(q) {
			sel, err := NewSelect(p, NewBase(name, d.uni.Sch))
			if err != nil {
				t.Fatalf("%s's filter %s does not bind against the table: %v", name, p, err)
			}
			check(map[string]Expr{name: sel})
			all[name] = sel
		}
		check(all)
	})
}
