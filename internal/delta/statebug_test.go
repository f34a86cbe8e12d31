package delta

import (
	"math/rand"
	"testing"

	"dvm/internal/algebra"
	"dvm/internal/bag"
	"dvm/internal/schema"
)

// example12 sets up the paper's Example 1.2. Pre-update state:
//
//	R(A,B) = {[a1,b1]}            S(B,C) = {[b1,c1],[b2,c2]}
//	MU = Π_A(σ_{R.B=S.B}(R × S)) = {[a1]}
//
// The transaction inserts [a1,b2] into R and (another) [b2,c2] into S.
// Correct △MU = {[a1],[a1]}; the pre-update algorithm evaluated in the
// post-update state yields {[a1],[a1],[a1],[a1]} — the state bug.
func example12() (pre, post algebra.MapSource, q algebra.Expr, log ChangeSet) {
	rsch := schema.NewSchema(schema.Col("R.A", schema.TString), schema.Col("R.B", schema.TString))
	ssch := schema.NewSchema(schema.Col("S.B", schema.TString), schema.Col("S.C", schema.TString))

	pre = algebra.MapSource{
		"R": bag.Of(schema.Row("a1", "b1")),
		"S": bag.Of(schema.Row("b1", "c1"), schema.Row("b2", "c2")),
	}
	insR := bag.Of(schema.Row("a1", "b2"))
	insS := bag.Of(schema.Row("b2", "c2"))
	post = algebra.MapSource{
		"R": bag.UnionAll(pre["R"], insR),
		"S": bag.UnionAll(pre["S"], insS),
	}

	r := algebra.NewBase("R", rsch)
	s := algebra.NewBase("S", ssch)
	join, err := algebra.JoinOn(r, s, algebra.Eq(algebra.A("R.B"), algebra.A("S.B")))
	if err != nil {
		panic(err)
	}
	q, err = algebra.NewProject([]string{"R.A"}, []string{"A"}, join)
	if err != nil {
		panic(err)
	}

	log = ChangeSet{
		"R": {Deleted: algebra.NewLiteral(rsch, bag.New()), Inserted: algebra.NewLiteral(rsch, insR)},
		"S": {Deleted: algebra.NewLiteral(ssch, bag.New()), Inserted: algebra.NewLiteral(ssch, insS)},
	}
	return pre, post, q, log
}

func TestExample12StateBug(t *testing.T) {
	pre, post, q, log := example12()
	a1 := schema.Row("a1")

	muPre, _ := algebra.Eval(q, pre)
	muPost, _ := algebra.Eval(q, post)
	if muPre.Count(a1) != 1 || muPost.Count(a1) != 3 {
		t.Fatalf("scenario setup wrong: pre=%v post=%v", muPre, muPost)
	}

	// Pre-update algorithm in the PRE state: correct, △MU = 2 copies.
	_, addPre, err := PreUpdate(log, q)
	if err != nil {
		t.Fatal(err)
	}
	av, _ := algebra.Eval(addPre, pre)
	if av.Count(a1) != 2 || av.Len() != 2 {
		t.Fatalf("pre-update in pre state: △MU = %v, want {[a1],[a1]}", av)
	}

	// The same equations in the POST state: the state bug — 4 copies.
	_, addNaive, err := NaivePostUpdate(log, q)
	if err != nil {
		t.Fatal(err)
	}
	nv, _ := algebra.Eval(addNaive, post)
	if nv.Count(a1) != 4 {
		t.Fatalf("state bug not reproduced: naive △MU = %v, want 4 copies of [a1]", nv)
	}

	// Our post-update algorithm in the POST state: correct.
	mvDel, mvAdd, err := PostUpdate(log, q)
	if err != nil {
		t.Fatal(err)
	}
	dv, _ := algebra.Eval(mvDel, post)
	av2, _ := algebra.Eval(mvAdd, post)
	refreshed := bag.UnionAll(bag.Monus(muPre, dv), av2)
	if !refreshed.Equal(muPost) {
		t.Fatalf("post-update refresh wrong: got %v want %v", refreshed, muPost)
	}
	if av2.Count(a1) != 2 {
		t.Fatalf("▲(L,Q) = %v, want net 2 copies", av2)
	}
}

// example13 sets up Example 1.3: U = R − S (monus), R = {a,b,c},
// S = {c,d}, MU = {a,b}. Transaction t deletes b from R and inserts it
// into S. Correct new U = {a}. The pre-update ∇MU evaluated post-state
// is ∅, leaving the stale b in MU.
func example13() (pre, post algebra.MapSource, q algebra.Expr, log ChangeSet) {
	sch := schema.NewSchema(schema.Col("x", schema.TString))
	pre = algebra.MapSource{
		"R": bag.Of(schema.Row("a"), schema.Row("b"), schema.Row("c")),
		"S": bag.Of(schema.Row("c"), schema.Row("d")),
	}
	delR := bag.Of(schema.Row("b"))
	insS := bag.Of(schema.Row("b"))
	post = algebra.MapSource{
		"R": bag.Monus(pre["R"], delR),
		"S": bag.UnionAll(pre["S"], insS),
	}
	r := algebra.NewBase("R", sch)
	s := algebra.NewBase("S", sch)
	m, err := algebra.NewMonus(r, s)
	if err != nil {
		panic(err)
	}
	q = m
	log = ChangeSet{
		"R": {Deleted: algebra.NewLiteral(sch, delR), Inserted: algebra.NewLiteral(sch, bag.New())},
		"S": {Deleted: algebra.NewLiteral(sch, bag.New()), Inserted: algebra.NewLiteral(sch, insS)},
	}
	return pre, post, q, log
}

func TestExample13StateBug(t *testing.T) {
	pre, post, q, log := example13()
	b := schema.Row("b")

	muPre, _ := algebra.Eval(q, pre)   // {a,b}
	muPost, _ := algebra.Eval(q, post) // {a}
	if muPre.Len() != 2 || muPost.Len() != 1 || muPost.Contains(b) {
		t.Fatalf("scenario setup wrong: pre=%v post=%v", muPre, muPost)
	}

	// Pre-update ∇MU in the PRE state: {b} — correct.
	delPre, _, err := PreUpdate(log, q)
	if err != nil {
		t.Fatal(err)
	}
	dv, _ := algebra.Eval(delPre, pre)
	if !dv.Equal(bag.Of(b)) {
		t.Fatalf("pre-update ∇MU in pre state = %v, want {[b]}", dv)
	}

	// Same equations in the POST state: ∇MU = ∅ — the stale tuple stays.
	delNaive, addNaive, err := NaivePostUpdate(log, q)
	if err != nil {
		t.Fatal(err)
	}
	ndv, _ := algebra.Eval(delNaive, post)
	nav, _ := algebra.Eval(addNaive, post)
	if !ndv.Empty() {
		t.Fatalf("state bug not reproduced: naive ∇MU = %v, want ∅", ndv)
	}
	stale := bag.UnionAll(bag.Monus(muPre, ndv), nav)
	if !stale.Contains(b) {
		t.Fatalf("expected the naive refresh to keep the incorrect tuple [b], got %v", stale)
	}

	// Our post-update algorithm removes b.
	mvDel, mvAdd, err := PostUpdate(log, q)
	if err != nil {
		t.Fatal(err)
	}
	pdv, _ := algebra.Eval(mvDel, post)
	pav, _ := algebra.Eval(mvAdd, post)
	refreshed := bag.UnionAll(bag.Monus(muPre, pdv), pav)
	if !refreshed.Equal(muPost) {
		t.Fatalf("post-update refresh wrong: got %v want %v", refreshed, muPost)
	}
}

func TestRemark1RestrictedClassAgreement(t *testing.T) {
	// Remark 1: for SPJ queries without self-joins updated in a SINGLE
	// table, pre-update and post-update equations agree when evaluated in
	// the post-update state. Randomized check over SPJ joins with
	// single-table inserts/deletes.
	r := rand.New(rand.NewSource(23))
	rsch := schema.NewSchema(schema.Col("R.k", schema.TInt), schema.Col("R.v", schema.TInt))
	ssch := schema.NewSchema(schema.Col("S.k", schema.TInt), schema.Col("S.w", schema.TInt))
	for i := 0; i < 100; i++ {
		pre := algebra.MapSource{"R": bag.New(), "S": bag.New()}
		for j, n := 0, r.Intn(8); j < n; j++ {
			pre["R"].Add(schema.Row(r.Intn(4), r.Intn(4)), 1)
		}
		for j, n := 0, r.Intn(8); j < n; j++ {
			pre["S"].Add(schema.Row(r.Intn(4), r.Intn(4)), 1)
		}
		rE := algebra.NewBase("R", rsch)
		sE := algebra.NewBase("S", ssch)
		join, err := algebra.JoinOn(rE, sE, algebra.Eq(algebra.A("R.k"), algebra.A("S.k")))
		if err != nil {
			t.Fatal(err)
		}
		q, err := algebra.NewProject([]string{"R.v", "S.w"}, nil, join)
		if err != nil {
			t.Fatal(err)
		}

		// Single-table update: touch only R.
		del := bag.New()
		ins := bag.New()
		for j, n := 0, r.Intn(3); j < n; j++ {
			del.Add(schema.Row(r.Intn(4), r.Intn(4)), 1)
		}
		for j, n := 0, r.Intn(3); j < n; j++ {
			ins.Add(schema.Row(r.Intn(4), r.Intn(4)), 1)
		}
		del = bag.Min(del, pre["R"])
		post := algebra.MapSource{
			"R": bag.UnionAll(bag.Monus(pre["R"], del), ins),
			"S": pre["S"],
		}
		log := ChangeSet{"R": {
			Deleted:  algebra.NewLiteral(rsch, del),
			Inserted: algebra.NewLiteral(rsch, ins),
		}}

		nd, na, err := NaivePostUpdate(log, q)
		if err != nil {
			t.Fatal(err)
		}
		pd, pa, err := PostUpdate(log, q)
		if err != nil {
			t.Fatal(err)
		}
		ndv, _ := algebra.Eval(nd, post)
		nav, _ := algebra.Eval(na, post)
		pdv, _ := algebra.Eval(pd, post)
		pav, _ := algebra.Eval(pa, post)
		if !ndv.Equal(pdv) || !nav.Equal(pav) {
			t.Fatalf("Remark 1 violated on iteration %d: naive (▼=%v ▲=%v) vs post (▼=%v ▲=%v)",
				i, ndv, nav, pdv, pav)
		}
	}
}

func TestRemark1BreaksWithMultiTableUpdate(t *testing.T) {
	// Example 1.2 is exactly the violation: SPJ, no self-join, but TWO
	// tables updated — the naive equations disagree with ours there.
	_, post, q, log := example12()
	_, na, err := NaivePostUpdate(log, q)
	if err != nil {
		t.Fatal(err)
	}
	_, pa, err := PostUpdate(log, q)
	if err != nil {
		t.Fatal(err)
	}
	nav, _ := algebra.Eval(na, post)
	pav, _ := algebra.Eval(pa, post)
	if nav.Equal(pav) {
		t.Fatal("expected disagreement once two tables are updated")
	}
}

// TestRemark1BreaksWithSelfJoin relaxes Remark 1's other condition: an
// SPJ view joining R with itself, updated in R alone. Each side of the
// join sees the update, so the naive equations disagree with ours on
// some random states.
func TestRemark1BreaksWithSelfJoin(t *testing.T) {
	const trials = 200
	r := rand.New(rand.NewSource(99))
	rsch := schema.NewSchema(schema.Col("R.k", schema.TInt), schema.Col("R.v", schema.TInt))
	join, err := algebra.JoinOn(algebra.Qualified(algebra.NewBase("R", rsch), "l"),
		algebra.Qualified(algebra.NewBase("R", rsch), "r"), algebra.Eq(algebra.A("l.k"), algebra.A("r.k")))
	if err != nil {
		t.Fatal(err)
	}
	q, err := algebra.NewProject([]string{"l.v", "r.v"}, []string{"v1", "v2"}, join)
	if err != nil {
		t.Fatal(err)
	}
	randBag := func(n int) *bag.Bag {
		b := bag.New()
		for j := 0; j < n; j++ {
			b.Add(schema.Row(r.Intn(3), r.Intn(3)), 1)
		}
		return b
	}
	disagree := 0
	for i := 0; i < trials; i++ {
		pre := randBag(2 + r.Intn(6))
		del := bag.Min(randBag(1+r.Intn(2)), pre)
		ins := randBag(1 + r.Intn(2))
		post := algebra.MapSource{"R": bag.UnionAll(bag.Monus(pre, del), ins)}
		log := ChangeSet{"R": {Deleted: algebra.NewLiteral(rsch, del), Inserted: algebra.NewLiteral(rsch, ins)}}
		nd, na, err := NaivePostUpdate(log, q)
		if err != nil {
			t.Fatal(err)
		}
		pd, pa, err := PostUpdate(log, q)
		if err != nil {
			t.Fatal(err)
		}
		ndv, _ := algebra.Eval(nd, post)
		nav, _ := algebra.Eval(na, post)
		pdv, _ := algebra.Eval(pd, post)
		pav, _ := algebra.Eval(pa, post)
		if !ndv.Equal(pdv) || !nav.Equal(pav) {
			disagree++
		}
	}
	t.Logf("E6 self-join: naive and post-update pairs disagree in %d of %d trials", disagree, trials)
	if disagree == 0 {
		t.Fatal("a self-join view updated in one table never disagreed: Remark 1's self-join condition is not exercised")
	}
}
