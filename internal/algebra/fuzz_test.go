package algebra

import (
	"testing"

	"dvm/internal/bag"
	"dvm/internal/schema"
)

// exprDecoder is a recursive-descent parser over the fuzz byte stream:
// each byte is an opcode (leaf or operator) and operands are drawn from
// subsequent bytes. Running out of bytes or hitting the depth cap
// degrades to a leaf, so every input decodes to a well-formed Expr over
// the universe's closed (a, b) schema.
type exprDecoder struct {
	data []byte
	pos  int
	uni  *RandomUniverse
}

func (d *exprDecoder) next() byte {
	if d.pos >= len(d.data) {
		return 0
	}
	b := d.data[d.pos]
	d.pos++
	return b
}

func (d *exprDecoder) leaf() Expr {
	switch b := d.next(); b % 4 {
	case 0:
		return Empty(d.uni.Sch)
	case 1:
		lit, err := Singleton(d.uni.Sch, schema.Row(int(d.next()%4), int(d.next()%4)))
		if err != nil {
			panic(err)
		}
		return lit
	default:
		return NewBase(d.uni.Tables[int(b)%len(d.uni.Tables)], d.uni.Sch)
	}
}

func (d *exprDecoder) pred() Predicate {
	col := func() Scalar {
		if d.next()%2 == 0 {
			return A("a")
		}
		return A("b")
	}
	var rhs Scalar = C(int(d.next() % 4))
	if d.next()%3 == 0 {
		rhs = col()
	}
	ops := []CmpOp{EQ, NE, LT, LE, GT, GE}
	c := Cmp{Op: ops[int(d.next())%len(ops)], L: col(), R: rhs}
	switch d.next() % 6 {
	case 0:
		return NotOf(c)
	case 1:
		return AndOf(c, Cmp{Op: ops[int(d.next())%len(ops)], L: col(), R: C(int(d.next() % 4))})
	case 2:
		return OrOf(c, Cmp{Op: ops[int(d.next())%len(ops)], L: col(), R: C(int(d.next() % 4))})
	default:
		return c
	}
}

// must unwraps a constructor result: the decoder only builds
// well-formed expressions, so an error is a bug in the decoder.
func must(e Expr, err error) Expr {
	if err != nil {
		panic(err)
	}
	return e
}

func (d *exprDecoder) expr(depth int) Expr {
	if depth <= 0 || d.pos >= len(d.data) {
		return d.leaf()
	}
	switch d.next() % 13 {
	case 0, 1:
		return d.leaf()
	case 2:
		return must(NewSelect(d.pred(), d.expr(depth-1)))
	case 3:
		cols := []string{"b", "a"}
		if d.next()%2 == 0 {
			cols = []string{"a", "a"}
		}
		return must(NewProject(cols, []string{"a", "b"}, d.expr(depth-1)))
	case 4:
		return NewDupElim(d.expr(depth - 1))
	case 5:
		return must(NewUnionAll(d.expr(depth-1), d.expr(depth-1)))
	case 6:
		return must(NewMonus(d.expr(depth-1), d.expr(depth-1)))
	case 7:
		prod := NewProduct(Qualified(d.expr(depth-1), "l"), Qualified(d.expr(depth-1), "r"))
		return must(NewProject([]string{"l.a", "r.b"}, []string{"a", "b"}, prod))
	case 8:
		return must(MinOf(d.expr(depth-1), d.expr(depth-1)))
	case 9:
		return must(MaxOf(d.expr(depth-1), d.expr(depth-1)))
	case 10:
		return must(ExceptOf(d.expr(depth-1), d.expr(depth-1)))
	case 11:
		return d.join(depth)
	default:
		return d.spine(depth)
	}
}

// join decodes Π(σ_p(L × R)) — the shape the compiler fuses into one
// join kernel call — with a conjunction p of up to four conjuncts that
// read one side, both sides or neither (constants), plain, under OR and
// under NOT. Qualifying only one side leaves the other's columns plain
// "a"/"b": names that each side's schema resolves on its own but that
// mean one particular side in the product.
func (d *exprDecoder) join(depth int) Expr {
	prod := d.product(depth, func(b byte) [2]string { return quals[b%3] })
	return d.project(must(NewSelect(d.conjunction(prod), prod)))
}

// quals are the ways a decoded product qualifies its two sides: both,
// the left alone, the right alone, and both the other way round.
var quals = [][2]string{{"l", "r"}, {"l", ""}, {"", "r"}, {"r", "l"}}

// product decodes L × R, then a byte, and qualifies the sides as qual
// maps that byte ("" leaves a side's columns plain "a"/"b").
func (d *exprDecoder) product(depth int, qual func(byte) [2]string) *Product {
	sides := [2]Expr{d.expr(depth - 1), d.expr(depth - 1)}
	for i, q := range qual(d.next()) {
		if q != "" {
			sides[i] = Qualified(sides[i], q)
		}
	}
	return NewProduct(sides[0], sides[1])
}

// spine decodes Π(σ_p(P ⊎ P′)) or Π(σ_p(P ∸ P′)), P and P′ products,
// each bare or under a σ of its own: the shape the compiler pushes σ
// through onto each product. P′ qualifies its sides otherwise than P,
// so the spine's right operand names its columns otherwise than the
// left one, whose names the ⊎ or ∸ takes.
func (d *exprDecoder) spine(depth int) Expr {
	var terms [2]Expr
	first := 0
	for i := range terms {
		prod := d.product(depth, func(b byte) [2]string {
			if i == 0 {
				first = int(b) % len(quals)
				return quals[first]
			}
			return quals[(first+1+int(b)%3)%len(quals)]
		})
		terms[i] = prod
		if d.next()%2 == 0 {
			terms[i] = must(NewSelect(d.conjunction(prod), prod))
		}
	}
	var sp Expr
	if d.next()%2 == 0 {
		sp = must(NewUnionAll(terms[0], terms[1]))
	} else {
		sp = must(NewMonus(terms[0], terms[1]))
	}
	return d.project(must(NewSelect(d.conjunction(sp), sp)))
}

// names returns the names among l.a, l.b, r.a, r.b, a and b that e's
// schema resolves.
func names(e Expr) []string {
	var out []string
	for _, n := range []string{"l.a", "l.b", "r.a", "r.b", "a", "b"} {
		if _, err := e.Schema().Lookup(n); err == nil {
			out = append(out, n)
		}
	}
	return out
}

// project decodes Π_{x,y→a,b}(e), x and y names e resolves.
func (d *exprDecoder) project(e Expr) Expr {
	ns := names(e)
	return must(NewProject([]string{ns[int(d.next())%len(ns)], ns[int(d.next())%len(ns)]}, []string{"a", "b"}, e))
}

// conjunction decodes a predicate over the names e resolves.
func (d *exprDecoder) conjunction(e Expr) Predicate {
	ns := names(e)
	name := func() string { return ns[int(d.next())%len(ns)] }
	ops := []CmpOp{EQ, NE, LT, LE, GT, GE}
	cmp := func() Predicate {
		c := Cmp{Op: ops[int(d.next())%len(ops)], L: A(name()), R: C(int(d.next() % 4))}
		switch d.next() % 4 {
		case 0, 1:
			c.R = A(name())
			if c.Op != EQ && d.next()%2 == 0 {
				c.Op = EQ // equalities key the hash join
			}
		case 2:
			c.L = C(int(d.next() % 4))
		}
		return c
	}
	conjuncts := make([]Predicate, 1+int(d.next()%4))
	for i := range conjuncts {
		switch d.next() % 6 {
		case 0:
			conjuncts[i] = OrOf(cmp(), cmp())
		case 1:
			conjuncts[i] = NotOf(cmp())
		case 2:
			conjuncts[i] = BoolLit{Value: d.next()%4 != 0}
		default:
			conjuncts[i] = cmp()
		}
	}
	return AndOf(conjuncts...)
}

// state derives a database instance from the remaining bytes, so the
// fuzzer controls both the query and the data it runs over.
func (d *exprDecoder) state() MapSource {
	st := MapSource{}
	for _, name := range d.uni.Tables {
		b := bag.New()
		for i, n := 0, int(d.next()%6); i < n; i++ {
			b.Add(schema.Row(int(d.next()%4), int(d.next()%4)), 1+int(d.next()%3))
		}
		st[name] = b
	}
	return st
}

// FuzzExprParseEval decodes arbitrary bytes into a bag-algebra
// expression plus a database state, evaluates it, and checks the two
// metamorphic properties the maintenance algorithms lean on: the
// rewrite Compile runs (Optimize) preserves bag semantics exactly (same
// multiplicities, not just the same set), and evaluation is
// deterministic.
func FuzzExprParseEval(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0, 1, 3, 7, 2})
	f.Add([]byte{5, 3, 3, 6, 1, 2, 2, 0, 9, 4})
	f.Add([]byte{7, 1, 1, 1, 8, 10, 5, 0, 3, 3, 9, 2, 6, 6})
	f.Add([]byte{255, 254, 253, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0})
	f.Add(spineSeed)

	f.Fuzz(func(t *testing.T, data []byte) {
		d := &exprDecoder{data: data, uni: NewRandomUniverse(3)}
		e := d.expr(5)
		st := d.state()

		got, err := Eval(e, st)
		if err != nil {
			t.Fatalf("Eval(%s): %v", e, err)
		}
		again, err := Eval(e, st)
		if err != nil || !got.Equal(again) {
			t.Fatalf("Eval not deterministic for %s: %v", e, err)
		}

		if sizeBound(e, st) > 1e12 {
			t.Skip("multiplicities could overflow") // and Optimize reorders the wrapped counts
		}
		opt := Optimize(e)
		optGot, err := Eval(opt, st)
		if err != nil {
			t.Fatalf("Eval(Optimize(%s)) = Eval(%s): %v", e, opt, err)
		}
		if !got.Equal(optGot) {
			t.Fatalf("Optimize changed semantics:\n  expr: %s\n  opt:  %s\n  got:  %s\n  want: %s",
				e, opt, optGot, got)
		}
	})
}

// mutate changes every table of st in place from the remaining bytes —
// single adds and removes, an ApplyDelta, now and then a Clear — the
// way maintenance transactions change live tables under a program's
// feet between two evaluations.
func (d *exprDecoder) mutate(st MapSource) {
	for _, name := range d.uni.Tables {
		b := st[name]
		for i, n := 0, int(d.next()%4); i < n; i++ {
			tu := schema.Row(int(d.next()%4), int(d.next()%4))
			switch op := d.next() % 8; {
			case op < 4:
				b.Add(tu, 1+int(op%3))
			case op < 6:
				b.Remove(tu, 1+int(op%2))
			case op == 6:
				b.ApplyDelta(bag.Of(tu), bag.Of(schema.Row(int(d.next()%4), int(d.next()%4))))
			default:
				b.Clear()
			}
		}
	}
}

// sizeBound is an upper bound on |e| in st. Nested products of tables
// the mutations have grown can push multiplicities past the int range,
// where counts wrap and the clamp at zero makes results depend on map
// order; the fuzz target skips states that could get there.
func sizeBound(e Expr, st MapSource) float64 {
	switch n := e.(type) {
	case *Literal:
		return float64(n.Bag.Len())
	case *Base:
		return float64(st[n.Name].Len())
	case *Select:
		return sizeBound(n.Child, st)
	case *Project:
		return sizeBound(n.Child, st)
	case *DupElim:
		return sizeBound(n.Child, st)
	case *UnionAll:
		return sizeBound(n.L, st) + sizeBound(n.R, st)
	case *Monus:
		return sizeBound(n.L, st)
	case *Product:
		return sizeBound(n.L, st) * sizeBound(n.R, st)
	}
	panic("sizeBound: unknown node")
}

// spineSeed decodes to Π(σ[l.a = 1]((ρ_l(R2) × ρ_r(R0)) ⊎ (ρ_r(R2) ×
// ρ_l(R0)))) over R2 = {(1, 2)} and R0 = {(3, 3)}: the ⊎ names its
// columns l.a, l.b, r.a, r.b after its left operand, and σ pushed into
// the right one would read l.a as its third column, keeping one of the
// two rows.
var spineSeed = []byte{12, 0, 2, 0, 3, 0, 1, 0, 2, 0, 3, 2, 1, 0, 0, 3, 0, 0, 1, 3, 0, 3, 1, 3, 3, 0, 0, 1, 1, 2, 0}

// FuzzCompiledEval decodes arbitrary bytes into an expression and a
// state — the same decoder as FuzzExprParseEval — and checks the
// compiled engine against the interpreter, one-shot and across a State
// reuse with the tables
// mutated in place in between: the tables' own join indexes, created on
// the first pass and caught up through the journal on the second, must
// not change answers, and neither must the bags the State keeps for its
// nodes, lent by EvalBorrowed and cleared and refilled on the second
// pass. The first pass ends with an Eval on the State, which hands the
// root over: the second pass must leave it as it was. Each pass also
// evaluates with the State holding the interpreter's answer and a bag of
// the root's arity drawn from the input (State.Hold), which must change
// nothing either: the joins then store those bags' tuples for the rows
// they hold.
func FuzzCompiledEval(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0, 1, 3, 7, 2})
	f.Add([]byte{7, 1, 1, 1, 8, 10, 5, 0, 3, 3, 9, 2, 6, 6})
	f.Add([]byte{255, 254, 253, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0})
	f.Add([]byte{3, 0, 1, 2, 5, 3, 3, 1, 2, 2, 2, 0, 0, 0, 1, 1, 0, 2, 2, 1, 3, 1, 0, 0, 2, 1, 1, 5, 3, 2, 2, 6, 1, 1, 2, 0, 7})
	// Π(σ(R2 × R0)), the fused join kernel's shape. Both sides qualified:
	// a cross equality, a left-only, a right-only and an OR conjunct.
	f.Add([]byte{11, 0, 2, 0, 3, 0, 3, 5, 0, 0, 0, 0, 2, 5, 2, 1, 2, 3, 5, 1, 3, 1, 3, 0, 3, 0, 1, 2, 2, 1, 3, 3, 0, 3, 3, 2, 1, 1, 2, 2, 0, 1, 3, 2, 2, 1, 0, 3, 1, 1, 2, 3, 0})
	// Only the left side qualified, so "a = b" reads the right side
	// alone; NOT and constant conjuncts.
	f.Add([]byte{11, 0, 2, 0, 3, 1, 3, 3, 0, 2, 0, 1, 3, 1, 2, 4, 1, 3, 2, 1, 1, 2, 1, 5, 3, 2, 0, 0, 3, 2, 1, 2, 3, 2, 2, 1, 1, 0, 3, 1, 2, 2, 0, 1})
	// Only the right side qualified, the join under a ∸, a FALSE conjunct.
	f.Add([]byte{6, 11, 0, 2, 0, 3, 2, 2, 4, 0, 0, 1, 0, 2, 3, 3, 1, 1, 2, 0, 1, 0, 3, 0, 2, 4, 2, 2, 1, 1, 3, 0, 1, 2, 3, 2, 1, 1, 2, 0, 3, 1})
	// Π(σ(ρ(R2) × ρ(R0 ∸ σ_{a ≤ 1}(R1)))) ⊎ R2, the Figure 2 delta term:
	// the kernel reads R0 ∸ σ(R1) through R0's own index, keyed on
	// l.a = r.a; then the same with l.a < r.b, no column to key on, where
	// the subtrahend is materialized; then the keyed one under a Π, which
	// goes through the ⊎ onto the join. Each mutates all three tables
	// before the second pass, the subtrahend R1 included.
	f.Add([]byte{5, 11, 0, 2, 6, 0, 3, 2, 1, 1, 3, 0, 3, 0, 10, 0, 0, 3, 0, 0, 0, 0, 2, 2, 1, 0, 2,
		4, 0, 1, 0, 1, 1, 1, 2, 0, 0, 3, 3, 0, 3, 1, 1, 0, 2, 0, 0, 0, 1, 1,
		4, 0, 2, 0, 1, 3, 0, 2, 2, 1, 3, 0, 0, 2, 1, 1, 4, 0, 1, 0, 1, 2, 0, 1, 1, 1, 1, 0})
	f.Add([]byte{5, 11, 0, 2, 6, 0, 3, 2, 1, 1, 3, 0, 3, 0, 10, 0, 0, 3, 2, 0, 0, 0, 3, 1, 2, 1, 0, 2,
		4, 0, 1, 0, 1, 1, 1, 2, 0, 0, 3, 3, 0, 3, 1, 1, 0, 2, 0, 0, 0, 1, 1,
		4, 0, 2, 0, 1, 3, 0, 2, 2, 1, 3, 0, 0, 2, 1, 1, 4, 0, 1, 0, 1, 2, 0, 1, 1, 1, 1, 0})
	f.Add([]byte{3, 1, 5, 11, 0, 2, 6, 0, 3, 2, 1, 1, 3, 0, 3, 10, 0, 0, 3, 0, 0, 0, 0, 2, 2, 1, 0, 2,
		4, 0, 1, 0, 1, 1, 1, 2, 0, 0, 3, 3, 0, 3, 1, 1, 0, 2, 0, 0, 0, 1, 1,
		4, 0, 2, 0, 1, 3, 0, 2, 2, 1, 3, 0, 0, 2, 1, 1, 4, 0, 1, 0, 1, 2, 0, 1, 1, 1, 1, 0})
	// σ over a ⊎ of two products whose columns are named differently
	// (spineSeed): the push-down must leave σ above the ⊎.
	f.Add(spineSeed)

	f.Fuzz(func(t *testing.T, data []byte) {
		d := &exprDecoder{data: data, uni: NewRandomUniverse(3)}
		e := d.expr(5)
		st := d.state()

		prog, err := Compile(e)
		if err != nil {
			t.Fatalf("Compile(%s): %v", e, err)
		}
		// drawn is a bag of the root's arity, its values read off the
		// input backwards, so that the decoder's stream stays as it was.
		drawn := bag.New()
		w := e.Schema().Len()
		for i := 0; i+w < len(data) && i < 60; i += w + 1 {
			tu := make(schema.Tuple, w)
			for c := range tu {
				tu[c] = schema.Int(int64(data[len(data)-1-i-c] % 4))
			}
			drawn.Add(tu, 1+int(data[len(data)-1-i-w]%3))
		}
		ps := prog.NewState()
		var handed, handedWant *bag.Bag
		for pass := 0; pass < 2; pass++ {
			if sizeBound(e, st) > 1e12 {
				t.Skip("multiplicities could overflow")
			}
			want, err := Eval(e, st)
			if err != nil {
				t.Fatalf("Eval(%s): %v", e, err)
			}
			runs := []struct {
				name string
				eval func(*State, Source) ([]*bag.Bag, Stats, error)
				st   *State
				held []*bag.Bag
			}{
				{"borrowed, reused State", prog.EvalBorrowed, ps, nil},
				{"borrowed, reused State holding", prog.EvalBorrowed, ps, []*bag.Bag{want, drawn}},
				{"one-shot", prog.Eval, nil, nil},
				{"handed over, reused State", prog.Eval, ps, nil},
			}
			if pass > 0 {
				runs = runs[:3] // the hand-over is the first pass's last
			}
			for i, run := range runs {
				if run.held != nil {
					run.st.Hold(run.held...)
				}
				got, _, err := run.eval(run.st, st)
				if err != nil {
					t.Fatalf("compiled Eval(%s) pass %d, %s: %v", e, pass, run.name, err)
				}
				if !got[0].Equal(want) {
					t.Fatalf("compiled ≠ interpreted for %s (pass %d, %s):\n  compiled:    %s\n  interpreted: %s",
						e, pass, run.name, got[0], want)
				}
				if i == 3 {
					handed, handedWant = got[0], want
				}
			}
			if pass > 0 && !handed.Equal(handedWant) {
				t.Fatalf("the root of %s handed over on the first pass changed to %s, want %s", e, handed, handedWant)
			}
			d.mutate(st)
		}
	})
}
