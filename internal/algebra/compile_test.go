package algebra

import (
	"math/rand"
	"testing"

	"dvm/internal/bag"
	"dvm/internal/schema"
)

// TestCompiledMatchesInterpreted sweeps random expression DAGs and
// random states through both engines: the interpreter is the oracle the
// compiled path must reproduce bag-for-bag.
func TestCompiledMatchesInterpreted(t *testing.T) {
	uni := NewRandomUniverse(3)
	r := rand.New(rand.NewSource(87))
	for i := 0; i < 400; i++ {
		e := uni.RandomQuery(r, 4)
		st := uni.RandomState(r)

		want, err := Eval(e, st)
		if err != nil {
			t.Fatalf("interpret %s: %v", e, err)
		}
		prog, err := Compile(e)
		if err != nil {
			t.Fatalf("compile %s: %v", e, err)
		}
		got, _, err := prog.Eval(nil, st)
		if err != nil {
			t.Fatalf("run compiled %s: %v", e, err)
		}
		if !got[0].Equal(want) {
			t.Fatalf("compiled result differs for %s:\n  compiled:    %s\n  interpreted: %s",
				e, got[0], want)
		}
	}
}

// randomDeltaView is a random view in the shape of a compiled delta
// program over the universe: a ⊎ of projected joins keyed on
// l.a = r.a, each side a base table (read through its own index), a
// base less a select of another (read in place as R ∸ σ(X)) or a random
// query. RandomQuery alone rarely yields a join the kernel runs.
func randomDeltaView(u *RandomUniverse, r *rand.Rand) Expr {
	base := func() Expr { return NewBase(u.Tables[r.Intn(len(u.Tables))], u.Sch) }
	side := func(alias string) Expr {
		switch r.Intn(3) {
		case 0:
			return Qualified(base(), alias)
		case 1:
			return Qualified(must(NewMonus(base(), must(NewSelect(u.randomPredicate(r), base())))), alias)
		}
		return Qualified(u.RandomQuery(r, 2), alias)
	}
	term := func() Expr {
		sel := must(NewSelect(AndOf(Eq(A("l.a"), A("r.a")), Cmp{Op: NE, L: A("r.b"), R: C(r.Intn(4))}),
			NewProduct(side("l"), side("r"))))
		return must(NewProject([]string{"l.a", "r.b"}, []string{"a", "b"}, sel))
	}
	e := term()
	for i := r.Intn(3); i > 0; i-- {
		e = must(NewUnionAll(e, term()))
	}
	return e
}

// TestCompiledStateReuse evaluates one program against a sequence of
// mutating states with a single reused State — the deployment shape in
// core, where cached join indexes must be invalidated by table versions,
// never trusted across mutations, and where the bags the State keeps for
// its joins and unions must be emptied before each refill. Most steps
// borrow the answer (EvalBorrowed); every third hands the roots over
// (Eval), and a root handed over stays as it was through the evaluations
// and changes that follow: the State never refills a bag it gave away.
func TestCompiledStateReuse(t *testing.T) {
	uni := NewRandomUniverse(3)
	r := rand.New(rand.NewSource(88))
	for i := 0; i < 200; i++ {
		e := randomDeltaView(uni, r)
		if i%4 == 0 {
			e = uni.RandomQuery(r, 4)
		}
		prog, err := Compile(e, Optimize(e))
		if err != nil {
			t.Fatalf("compile %s: %v", e, err)
		}
		st := uni.RandomState(r)
		ps := prog.NewState()
		var handed, handedWant []*bag.Bag
		for step := 0; step < 6; step++ {
			want, err := Eval(e, st)
			if err != nil {
				t.Fatalf("interpret %s: %v", e, err)
			}
			eval := prog.EvalBorrowed
			if step%3 == 2 {
				eval = prog.Eval
			}
			got, _, err := eval(ps, st)
			if err != nil {
				t.Fatalf("run compiled %s: %v", e, err)
			}
			for k := range got {
				if !got[k].Equal(want) {
					t.Fatalf("step %d: compiled root %d differs for %s:\n  compiled:    %s\n  interpreted: %s",
						step, k, e, got[k], want)
				}
				if step%3 == 2 {
					handed, handedWant = append(handed, got[k]), append(handedWant, want)
				}
			}
			for k, h := range handed {
				if !h.Equal(handedWant[k]) {
					t.Fatalf("step %d: a root of %s handed over as %s is now %s", step, e, handedWant[k], h)
				}
			}
			// Mutate the live state in place: some tables change (their
			// cached indexes must be caught up), others stay (theirs must
			// be reused, not recomputed into wrong answers).
			for _, name := range uni.Tables {
				if r.Intn(2) == 0 {
					continue
				}
				del, ins := uni.RandomDelta(r)
				st[name].ApplyDelta(del, ins)
			}
		}
	}
}

// TestEvalHandsOverAndForgets: a join root is built into a bag the
// State keeps. EvalBorrowed lends that bag, and the next evaluation
// refills it; Eval hands it over, and the next evaluation builds into
// another bag, leaving the one handed over as it was.
func TestEvalHandsOverAndForgets(t *testing.T) {
	uni := NewRandomUniverse(2)
	l, rt := Qualified(NewBase("R0", uni.Sch), "l"), Qualified(NewBase("R1", uni.Sch), "r")
	e := must(NewProject([]string{"l.a", "r.b"}, []string{"a", "b"},
		must(NewSelect(Eq(A("l.a"), A("r.a")), NewProduct(l, rt)))))
	prog, err := Compile(e)
	if err != nil {
		t.Fatal(err)
	}
	if !prog.Owned(0) {
		t.Fatalf("%s is not Owned", e)
	}
	st := MapSource{"R0": bag.Of(schema.Row(1, 1), schema.Row(2, 2)), "R1": bag.Of(schema.Row(1, 5), schema.Row(2, 6))}
	ps := prog.NewState()
	eval := func(f func(*State, Source) ([]*bag.Bag, Stats, error)) *bag.Bag {
		out, _, err := f(ps, st)
		if err != nil {
			t.Fatal(err)
		}
		return out[0]
	}
	lent := eval(prog.EvalBorrowed)
	if again := eval(prog.EvalBorrowed); again != lent {
		t.Fatal("EvalBorrowed built the root into another bag, want the State's own refilled")
	}
	handed := eval(prog.Eval)
	if handed != lent {
		t.Fatal("Eval did not hand the State's bag over")
	}
	want := bag.UnionAll(handed, bag.New()) // a copy that shares no map
	st["R1"].Add(schema.Row(2, 7), 1)
	if next := eval(prog.EvalBorrowed); next == handed || next.Distinct() != 3 {
		t.Fatalf("after Eval handed the root over, the next evaluation built %s into %p, the handed bag is %p", next, next, handed)
	}
	if !handed.Equal(want) {
		t.Fatalf("the handed-over root changed from %s to %s", want, handed)
	}
}

// TestCompiledSharedRoots compiles a ∇/▲-shaped pair of roots sharing
// most of their DAG and checks each root against the interpreter, plus
// that shared nodes are compiled once (DAG dedup, the slot analogue of
// the interpreter's memo).
func TestCompiledSharedRoots(t *testing.T) {
	uni := NewRandomUniverse(2)
	r := rand.New(rand.NewSource(89))
	shared := uni.RandomQuery(r, 3)
	d1, err := NewMonus(shared, NewBase(uni.Tables[0], uni.Sch))
	if err != nil {
		t.Fatal(err)
	}
	d2, err := NewUnionAll(shared, NewBase(uni.Tables[1], uni.Sch))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(d1, d2)
	if err != nil {
		t.Fatal(err)
	}
	st := uni.RandomState(r)
	got, _, err := prog.Eval(nil, st)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range []Expr{d1, d2} {
		want, err := Eval(e, st)
		if err != nil {
			t.Fatal(err)
		}
		if !got[i].Equal(want) {
			t.Fatalf("root %d differs: %s vs %s", i, got[i], want)
		}
	}
}

// TestEvalResultsDoNotAlias pins the ownership contract both engines
// guarantee: mutating a returned bag must never change base tables,
// literals, or results handed out earlier. This is the regression test
// for the evaluator alias audit — every leaf shape that could leak
// (Base straight from storage, Literal straight from the caller) is
// driven through the paths that return leaves un-transformed.
func TestEvalResultsDoNotAlias(t *testing.T) {
	sch := schema.NewSchema(schema.Col("a", schema.TInt), schema.Col("b", schema.TInt))
	base := bag.New().Add(schema.Row(1, 2), 3)
	lit := bag.New().Add(schema.Row(7, 7), 1)
	st := MapSource{"R": base}

	litExpr := NewLiteral(sch, lit)
	baseExpr := NewBase("R", sch)
	union, err := NewUnionAll(baseExpr, litExpr)
	if err != nil {
		t.Fatal(err)
	}
	// UnionAll with an empty side short-circuits to the other operand —
	// the most alias-prone shape.
	emptyUnion, err := NewUnionAll(baseExpr, Empty(sch))
	if err != nil {
		t.Fatal(err)
	}

	exprs := []Expr{litExpr, baseExpr, union, emptyUnion}
	check := func(name string, eval func(Expr) (*bag.Bag, error)) {
		baseSnap, litSnap := base.Clone(), lit.Clone()
		for _, e := range exprs {
			out, err := eval(e)
			if err != nil {
				t.Fatalf("%s eval %s: %v", name, e, err)
			}
			snap := out.Clone()
			out.Add(schema.Row(99, 99), 5)
			out.Remove(schema.Row(1, 2), 3)
			if !base.Equal(baseSnap) {
				t.Fatalf("%s: mutating result of %s changed the base table", name, e)
			}
			if !lit.Equal(litSnap) {
				t.Fatalf("%s: mutating result of %s changed the literal bag", name, e)
			}
			// Re-evaluating must reproduce the original answer, i.e. the
			// mutation did not poison any memo/slot/index cache.
			again, err := eval(e)
			if err != nil {
				t.Fatal(err)
			}
			if !again.Equal(snap) {
				t.Fatalf("%s: mutation of a returned bag leaked into re-evaluation of %s", name, e)
			}
		}
	}

	check("interpreter", func(e Expr) (*bag.Bag, error) { return Eval(e, st) })
	ev := NewEvaluator(st)
	check("evaluator", ev.Eval)
	progs := map[Expr]*Program{}
	states := map[Expr]*State{}
	check("compiled", func(e Expr) (*bag.Bag, error) {
		if progs[e] == nil {
			prog, err := Compile(e)
			if err != nil {
				return nil, err
			}
			progs[e], states[e] = prog, prog.NewState()
		}
		out, _, err := progs[e].Eval(states[e], st)
		if err != nil {
			return nil, err
		}
		return out[0], nil
	})
}

// TestCompileSnapshotsLiterals pins the documented divergence between
// the engines: a Program clones literal bags at compile time, so caller
// mutations of a literal after Compile do not reach the program (the
// interpreter reads literals live).
func TestCompileSnapshotsLiterals(t *testing.T) {
	sch := schema.NewSchema(schema.Col("a", schema.TInt), schema.Col("b", schema.TInt))
	lit := bag.New().Add(schema.Row(7, 7), 1)
	e := NewLiteral(sch, lit)
	prog, err := Compile(e)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := prog.Eval(nil, MapSource{})
	if err != nil {
		t.Fatal(err)
	}
	lit.Add(schema.Row(8, 8), 2)
	got, _, err := prog.Eval(nil, MapSource{})
	if err != nil {
		t.Fatal(err)
	}
	if !got[0].Equal(want[0]) {
		t.Fatalf("literal mutation after Compile reached the program: %s vs %s", got[0], want[0])
	}
}

// TestCompiledJoinProbesIndex checks the compiled join actually uses a
// cached index: a re-evaluation against an unchanged big side must
// probe far fewer pairs than |L|·|R|.
func TestCompiledJoinProbesIndex(t *testing.T) {
	lsch := schema.NewSchema(schema.Col("l.k", schema.TInt), schema.Col("l.v", schema.TInt))
	rsch := schema.NewSchema(schema.Col("r.k", schema.TInt), schema.Col("r.v", schema.TInt))
	big, small := bag.New(), bag.New()
	for i := 0; i < 500; i++ {
		big.Add(schema.Row(i, i%7), 1)
	}
	small.Add(schema.Row(3, 1), 1).Add(schema.Row(4, 2), 2)
	st := MapSource{"Big": big, "Small": small}

	join, err := JoinOn(NewBase("Big", lsch), NewBase("Small", rsch), Eq(A("l.k"), A("r.k")))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(join)
	if err != nil {
		t.Fatal(err)
	}
	ps := prog.NewState()
	out, stats, err := prog.Eval(ps, st)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Eval(join, st)
	if err != nil {
		t.Fatal(err)
	}
	if !out[0].Equal(want) {
		t.Fatalf("join differs: %s vs %s", out[0], want)
	}
	if stats.IndexProbeTuples == 0 || stats.IndexProbeTuples > 10 {
		t.Fatalf("first eval probed %d pairs, want a handful (index-sided join)", stats.IndexProbeTuples)
	}
	// Second eval with the unchanged big side: cached index, same answer.
	out, stats, err = prog.Eval(ps, st)
	if err != nil {
		t.Fatal(err)
	}
	if !out[0].Equal(want) {
		t.Fatalf("cached-index join differs: %s vs %s", out[0], want)
	}
	if stats.IndexProbeTuples > 10 {
		t.Fatalf("cached eval probed %d pairs, want a handful", stats.IndexProbeTuples)
	}
}

// TestCompiledIndexSyncsIncrementally checks the cross-evaluation index
// cache survives base-table mutation: after a small in-place change to
// the indexed side, the next evaluation catches the index up through
// the bag's mutation journal (delta-sized build work) instead of
// rebuilding it from the full table.
func TestCompiledIndexSyncsIncrementally(t *testing.T) {
	lsch := schema.NewSchema(schema.Col("l.k", schema.TInt), schema.Col("l.v", schema.TInt))
	rsch := schema.NewSchema(schema.Col("r.k", schema.TInt), schema.Col("r.v", schema.TInt))
	big, small := bag.New(), bag.New()
	for i := 0; i < 500; i++ {
		big.Add(schema.Row(i, i%7), 1)
	}
	small.Add(schema.Row(3, 1), 1)
	st := MapSource{"Big": big, "Small": small}

	join, err := JoinOn(NewBase("Big", lsch), NewBase("Small", rsch), Eq(A("l.k"), A("r.k")))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(join)
	if err != nil {
		t.Fatal(err)
	}
	ps := prog.NewState()
	if _, _, err := prog.Eval(ps, st); err != nil {
		t.Fatal(err)
	}

	// Mutate the indexed side in place: 3 effective changes, journaled.
	big.Add(schema.Row(500, 0), 1)
	big.Add(schema.Row(3, 9), 1)
	big.Remove(schema.Row(4, 4%7), 1)

	out, stats, err := prog.Eval(ps, st)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Eval(join, st)
	if err != nil {
		t.Fatal(err)
	}
	if !out[0].Equal(want) {
		t.Fatalf("synced-index join differs: %s vs %s", out[0], want)
	}
	if stats.IndexBuildTuples == 0 || stats.IndexBuildTuples > 10 {
		t.Fatalf("post-mutation eval built %d index tuples, want the 3 journaled changes (a full rebuild would be ~500)", stats.IndexBuildTuples)
	}
}

// TestEmptyOperandEndsTheJoin: a join fetches its table operand first,
// and when that is empty it returns without evaluating the other one —
// here a σ over a product of tables, which would copy 400 rows. The
// evaluation allocates the same handful for a 400-row table as for a
// 4-row one, compiled either way round, and is still the interpreter's
// answer (empty), as it is once the table fills.
func TestEmptyOperandEndsTheJoin(t *testing.T) {
	sch := schema.NewSchema(schema.Col("k", schema.TInt), schema.Col("v", schema.TInt))
	derived, err := NewSelect(Lt(A("l.v"), A("r.v")), NewProduct(Qualified(NewBase("Big", sch), "l"), Qualified(NewBase("Big", sch), "r")))
	if err != nil {
		t.Fatal(err)
	}
	log := Qualified(NewBase("Log", sch), "g")
	for _, join := range []struct{ l, r Expr }{{log, derived}, {derived, log}} {
		e, err := JoinOn(join.l, join.r, Eq(A("g.k"), A("l.k")))
		if err != nil {
			t.Fatal(err)
		}
		prog, err := Compile(e)
		if err != nil {
			t.Fatal(err)
		}
		allocs := func(rows int) float64 {
			big := bag.New()
			for i := 0; i < rows; i++ {
				big.Add(schema.Row(i%3, i), 1)
			}
			st, ps := MapSource{"Big": big, "Log": bag.New()}, prog.NewState()
			return testing.AllocsPerRun(10, func() {
				if out, _, err := prog.Eval(ps, st); err != nil || !out[0].Empty() {
					t.Fatalf("%s over an empty log = %v (%v)", e, out, err)
				}
			})
		}
		if small, large := allocs(4), allocs(400); small != large || large > 10 {
			t.Errorf("%s: %v allocations with a 4-row table, %v with a 400-row one; want one small constant", e, small, large)
		}
		st := MapSource{"Big": bag.Of(schema.Row(1, 1), schema.Row(1, 2)), "Log": bag.Of(schema.Row(1, 0))}
		got, _, err := prog.Eval(prog.NewState(), st)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := Eval(e, st); !got[0].Equal(want) || want.Empty() {
			t.Fatalf("%s = %v, interpreter says %v", e, got[0], want)
		}
	}
}

// TestTableIndexSharedAndOneShotReadOnly checks who ends up owning a
// join index. Evaluating with a State asks the base table's bag for its
// own index: the DEL-like and ADD-like terms of one program and a second
// program joining on the same column all probe one index, built once.
// Evaluating without a State only reads: the same join leaves no index
// (and no journal) behind on the table.
func TestTableIndexSharedAndOneShotReadOnly(t *testing.T) {
	lsch := schema.NewSchema(schema.Col("k", schema.TInt), schema.Col("v", schema.TInt))
	big, logA, logB := bag.New(), bag.New(), bag.New()
	for i := 0; i < 400; i++ {
		big.Add(schema.Row(i%50, i), 1)
	}
	logA.Add(schema.Row(3, 1), 1)
	logB.Add(schema.Row(4, 2), 1).Add(schema.Row(5, 2), 1)
	st := MapSource{"Big": big, "LogA": logA, "LogB": logB}
	// The SQL shape: every FROM table under a renaming.
	join := func(log string) Expr {
		e, err := JoinOn(Qualified(NewBase("Big", lsch), "b"), Qualified(NewBase(log, lsch), "l"), Eq(A("b.k"), A("l.k")))
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	ja, jb := join("LogA"), join("LogB")
	check := func(got *bag.Bag, e Expr) {
		t.Helper()
		want, err := Eval(e, st)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("compiled %s = %s, interpreter says %s", e, got, want)
		}
	}

	pair, err := Compile(ja, jb)
	if err != nil {
		t.Fatal(err)
	}
	outs, stats, err := pair.Eval(nil, st)
	if err != nil {
		t.Fatal(err)
	}
	check(outs[0], ja)
	check(outs[1], jb)
	if stats.IndexBuildTuples != 3 {
		t.Fatalf("one-shot eval built %d index tuples, want the 1+2 rows of the smaller sides", stats.IndexBuildTuples)
	}
	for name, b := range st {
		if n := len(b.Indexes()); n != 0 {
			t.Fatalf("one-shot eval left %d indexes on %s", n, name)
		}
	}

	ps := pair.NewState()
	if outs, stats, err = pair.Eval(ps, st); err != nil {
		t.Fatal(err)
	}
	check(outs[0], ja)
	check(outs[1], jb)
	if stats.IndexBuildTuples != 400 || len(big.Indexes()) != 1 {
		t.Fatalf("two terms joining Big built %d tuples into %d indexes, want 400 into 1", stats.IndexBuildTuples, len(big.Indexes()))
	}
	other, err := Compile(jb)
	if err != nil {
		t.Fatal(err)
	}
	big.Add(schema.Row(4, 999), 2) // one change: the only catching up the other program pays
	if outs, stats, err = other.Eval(other.NewState(), st); err != nil {
		t.Fatal(err)
	}
	check(outs[0], jb)
	if stats.IndexBuildTuples != 1 || len(big.Indexes()) != 1 {
		t.Fatalf("a second program built %d tuples (%d indexes on Big), want 1 (1): it shares the table's index",
			stats.IndexBuildTuples, len(big.Indexes()))
	}
	if len(logA.Indexes())+len(logB.Indexes()) != 0 {
		t.Fatal("the smaller base side was indexed too")
	}
}

// TestEvalHandsOverOnlyWhatItOwns is the proof behind the root
// hand-over: Eval returns a root's bag uncloned only when nothing else
// can reach it. Every program here has a root that could be handed over
// next to one that must not be — the same node twice, under a renaming,
// as another root's child, a bare table, a literal, a ⊎ with an empty
// side — and after every evaluation each returned bag is mutated: the
// other roots, the tables and the next evaluation (same State) must not
// notice, and every root must still be what the interpreter says.
func TestEvalHandsOverOnlyWhatItOwns(t *testing.T) {
	uni := NewRandomUniverse(3)
	r := rand.New(rand.NewSource(18))
	must := func(e Expr, err error) Expr {
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	for i := 0; i < 150; i++ {
		e := uni.RandomQuery(r, 3)
		sel := must(NewSelect(uni.randomPredicate(r), e)) // always a fresh bag
		base := NewBase(uni.Tables[0], uni.Sch)
		programs := [][]Expr{
			{sel},
			{sel, sel},
			{Qualified(sel, "q"), sel},
			{Qualified(Qualified(sel, "q"), "p")},
			{sel, NewDupElim(sel)},
			{e, base, Qualified(base, "q"), must(NewUnionAll(sel, Empty(uni.Sch)))},
			{NewProduct(e, base), must(NewMonus(sel, Empty(uni.Sch))), e},
		}
		for _, roots := range programs {
			prog, err := Compile(roots...)
			if err != nil {
				t.Fatal(err)
			}
			st := uni.RandomState(r)
			snap := MapSource{}
			for name, b := range st {
				snap[name] = b.Clone()
			}
			ps := prog.NewState()
			for pass := 0; pass < 2; pass++ {
				outs, _, err := prog.Eval(ps, st)
				if err != nil {
					t.Fatal(err)
				}
				for k, out := range outs {
					want, err := Eval(roots[k], st)
					if err != nil {
						t.Fatal(err)
					}
					if !out.Equal(want) {
						t.Fatalf("pass %d: root %d of %v = %s, interpreter says %s", pass, k, roots, out, want)
					}
					foreign := make(schema.Tuple, roots[k].Schema().Len()) // in the root's arity
					for c := range foreign {
						foreign[c] = schema.Int(99)
					}
					out.Add(foreign, 5)
					out.ApplyDelta(want, bag.New())
				}
				for name, b := range st {
					if !b.Equal(snap[name]) {
						t.Fatalf("mutating the roots of %v changed table %s", roots, name)
					}
				}
			}
		}
	}

	sel := must(NewSelect(True, NewBase("R0", uni.Sch)))
	union := must(NewUnionAll(sel, Empty(uni.Sch)))
	for _, c := range []struct {
		roots []Expr
		owned []bool
	}{
		{[]Expr{sel}, []bool{true}},
		{[]Expr{Qualified(sel, "q")}, []bool{true}},
		{[]Expr{NewDupElim(sel), NewProduct(sel, sel)}, []bool{true, true}},
		{[]Expr{sel, sel}, []bool{false, false}},
		{[]Expr{sel, Qualified(sel, "q")}, []bool{false, false}},
		{[]Expr{sel, NewDupElim(sel)}, []bool{false, true}},
		{[]Expr{NewBase("R0", uni.Sch), Empty(uni.Sch), union}, []bool{false, false, false}},
	} {
		prog, err := Compile(c.roots...)
		if err != nil {
			t.Fatal(err)
		}
		for k, want := range c.owned {
			if prog.owned[k] != want {
				t.Errorf("root %d of %v: handed over = %v, want %v", k, c.roots, prog.owned[k], want)
			}
		}
	}
}

// TestJoinSplitsPredicateByProductSchema pins where a join predicate's
// names are resolved: in the product's schema. With only the left side
// qualified, "a" is the right side's column in the product although the
// left schema on its own would resolve it to "l.a" — so "a = l.b" is a
// cross-side equality (and the hash key), "a = a" reads the right side
// alone, and neither may be evaluated on the left tuple. The join as
// written and with its one-side conjuncts moved into selects on their
// sides (which the compiler peels off a base-table side again),
// compiled (fused under the Π and not) and interpreted, must all equal
// the nested loop over positions.
func TestJoinSplitsPredicateByProductSchema(t *testing.T) {
	uni := NewRandomUniverse(2)
	r := rand.New(rand.NewSource(19))
	l, rt := Qualified(NewBase("R0", uni.Sch), "l"), NewBase("R1", uni.Sch)
	prod := NewProduct(l, rt) // (l.a, l.b, a, b)
	for _, c := range []struct {
		pred  Predicate
		want  func(schema.Tuple) bool
		sides [3]int // conjuncts that go left, right, stay
	}{
		{Eq(A("a"), A("l.b")), func(t schema.Tuple) bool { return t[2].Equal(t[1]) }, [3]int{0, 0, 1}},
		{Eq(A("a"), A("a")), func(schema.Tuple) bool { return true }, [3]int{0, 1, 0}},
		{AndOf(Eq(A("l.a"), A("b")), Lt(A("a"), C(2)), Gt(A("l.b"), C(0)), OrOf(Eq(A("a"), C(1)), Eq(A("l.a"), C(1))), Eq(C(1), C(1))),
			func(t schema.Tuple) bool {
				return t[0].Equal(t[3]) && t[2].Compare(schema.Int(2)) < 0 && t[1].Compare(schema.Int(0)) > 0 &&
					(t[2].Equal(schema.Int(1)) || t[0].Equal(schema.Int(1)))
			}, [3]int{1, 1, 3}},
	} {
		left, right, rest := splitConjuncts(c.pred, prod)
		if got := [3]int{len(left), len(right), len(rest)}; got != c.sides {
			t.Errorf("splitConjuncts(%s) = %d left, %d right, %d rest; want %v", c.pred, got[0], got[1], got[2], c.sides)
		}
		sel, err := NewSelect(c.pred, prod)
		if err != nil {
			t.Fatal(err)
		}
		proj, err := NewProject([]string{"b", "l.a", "a"}, nil, sel)
		if err != nil {
			t.Fatal(err)
		}
		on := func(side Expr, conjuncts []Predicate) Expr {
			if len(conjuncts) == 0 {
				return side
			}
			return must(NewSelect(AndOf(conjuncts...), side))
		}
		split := must(NewSelect(AndOf(rest...), NewProduct(on(l, left), on(rt, right))))
		splitProj := must(NewProject([]string{"b", "l.a", "a"}, nil, split))
		for i := 0; i < 20; i++ {
			st := uni.RandomState(r)
			joined := bag.ProductSelect(st["R0"], st["R1"], c.want)
			projected := bag.Project(joined, func(t schema.Tuple) schema.Tuple { return t.Project([]int{3, 0, 2}) })
			for _, e := range []struct {
				e    Expr
				want *bag.Bag
			}{{sel, joined}, {split, joined}, {proj, projected}, {splitProj, projected}} {
				if got, err := Eval(e.e, st); err != nil || !got.Equal(e.want) {
					t.Fatalf("interpreted %s = %s (%v), want %s", e.e, got, err, e.want)
				}
				prog, err := Compile(e.e)
				if err != nil {
					t.Fatal(err)
				}
				for _, ps := range []*State{nil, prog.NewState()} {
					if got, _, err := prog.Eval(ps, st); err != nil || !got[0].Equal(e.want) {
						t.Fatalf("compiled %s = %s (%v), want %s", e.e, got[0], err, e.want)
					}
				}
			}
		}
	}
}
