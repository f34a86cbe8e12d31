package delta

import (
	"math/rand"
	"strings"
	"testing"

	"dvm/internal/algebra"
	"dvm/internal/bag"
	"dvm/internal/schema"
)

func spSchema() *schema.Schema {
	return schema.NewSchema(schema.Col("a", schema.TInt), schema.Col("b", schema.TInt))
}

func TestSelfMaintainableClassification(t *testing.T) {
	sch := spSchema()
	r := algebra.NewBase("R", sch)
	s := algebra.NewBase("S", sch)
	sel, err := algebra.NewSelect(algebra.Gt(algebra.A("a"), algebra.C(0)), r)
	if err != nil {
		t.Fatal(err)
	}
	proj, err := algebra.NewProject([]string{"a"}, nil, sel)
	if err != nil {
		t.Fatal(err)
	}
	un, err := algebra.NewUnionAll(sel, s)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := algebra.NewMonus(r, s)
	if err != nil {
		t.Fatal(err)
	}

	yes := []algebra.Expr{r, sel, proj, un, algebra.Empty(sch)}
	for _, q := range yes {
		if !SelfMaintainable(q) {
			t.Errorf("%s should be self-maintainable", q)
		}
	}
	no := []algebra.Expr{
		algebra.NewDupElim(r),
		mon,
		algebra.NewProduct(algebra.Qualified(r, "l"), algebra.Qualified(s, "r")),
	}
	for _, q := range no {
		if SelfMaintainable(q) {
			t.Errorf("%s should NOT be self-maintainable", q)
		}
	}
}

// TestSelfMaintainableMeansNoBaseAccess verifies the semantic
// definition: for queries classified self-maintainable, the Figure 2
// differentials reference only the substitution's delta tables; for the
// others they reference at least one base table.
func TestSelfMaintainableMeansNoBaseAccess(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	u := algebra.NewRandomUniverse(2)
	cs := ChangeSet{}
	for _, name := range u.Tables {
		cs[name] = struct {
			Deleted  algebra.Expr
			Inserted algebra.Expr
		}{
			Deleted:  algebra.NewBase("__d_"+name, u.Sch),
			Inserted: algebra.NewBase("__i_"+name, u.Sch),
		}
	}
	isDelta := func(name string) bool { return strings.HasPrefix(name, "__d_") || strings.HasPrefix(name, "__i_") }

	checked := 0
	for i := 0; i < 300 && checked < 100; i++ {
		q := u.RandomQuery(r, 3)
		d, a, err := Differentiate(TransactionSubst(cs), q)
		if err != nil {
			t.Fatal(err)
		}
		touchesBase := false
		for _, e := range []algebra.Expr{d, a} {
			for _, name := range algebra.BaseNames(e) {
				if !isDelta(name) {
					touchesBase = true
				}
			}
		}
		if SelfMaintainable(q) {
			checked++
			if touchesBase {
				t.Fatalf("self-maintainable query's differentials read base tables:\nQ = %s\nDEL = %s", q, d)
			}
		}
	}
	if checked == 0 {
		t.Fatal("random generator produced no self-maintainable queries to check")
	}
}

// TestSelfMaintainableViewsDodgeTheStateBug is §1.2's observation
// ([GJM96]): a self-maintainable view never sees the state bug. Under
// arbitrary updates to every table, the naive post-state evaluation of
// the pre-update equations changes such a view exactly as the
// post-update algorithm does, while the other views disagree.
func TestSelfMaintainableViewsDodgeTheStateBug(t *testing.T) {
	const trials = 200
	r := rand.New(rand.NewSource(121))
	u := algebra.NewRandomUniverse(2)
	sm, general, disagree := 0, 0, 0
	for draws := 0; (sm < trials || general < trials) && draws < 50*trials; draws++ {
		q := u.RandomQuery(r, 3)
		selfMaint := SelfMaintainable(q)
		if selfMaint && sm == trials || !selfMaint && general == trials {
			continue
		}
		pre := u.RandomState(r)
		post := algebra.MapSource{}
		log := ChangeSet{}
		for _, name := range u.Tables {
			del, ins := u.RandomDelta(r)
			del = bag.Min(del, pre[name])
			post[name] = bag.UnionAll(bag.Monus(pre[name], del), ins)
			log[name] = struct {
				Deleted  algebra.Expr
				Inserted algebra.Expr
			}{algebra.NewLiteral(u.Sch, del), algebra.NewLiteral(u.Sch, ins)}
		}
		// Agreement on the net effect applied to the past value, which is
		// what a maintainer observes.
		past, err := algebra.Eval(q, pre)
		if err != nil {
			t.Fatal(err)
		}
		var refreshed [2]*bag.Bag
		for i, pair := range []func(ChangeSet, algebra.Expr) (algebra.Expr, algebra.Expr, error){NaivePostUpdate, PostUpdate} {
			d, a, err := pair(log, q)
			if err != nil {
				t.Fatal(err)
			}
			dv, _ := algebra.Eval(d, post)
			av, _ := algebra.Eval(a, post)
			refreshed[i] = bag.UnionAll(bag.Monus(past, dv), av)
		}
		agree := refreshed[0].Equal(refreshed[1])
		if !selfMaint {
			general++
			if !agree {
				disagree++
			}
			continue
		}
		sm++
		if !agree {
			t.Fatalf("self-maintainable view saw the state bug:\nQ = %s\nnaive %v, post-update %v", q, refreshed[0], refreshed[1])
		}
	}
	t.Logf("E12: %d self-maintainable views all agree; %d of %d other views disagree", sm, disagree, general)
	if sm < trials || general < trials {
		t.Fatalf("drew %d self-maintainable and %d other views, want %d of each", sm, general, trials)
	}
	if disagree == 0 {
		t.Fatal("no view outside the self-maintainable class ever disagreed: the class separation is not exercised")
	}
}
