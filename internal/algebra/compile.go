package algebra

import (
	"errors"
	"fmt"

	"dvm/internal/bag"
	"dvm/internal/schema"
)

// This file lowers expression DAGs into compiled delta programs: the
// specialization step the fine-grained-IVM literature applies to
// maintenance expressions that are fixed at view-registration time and
// then evaluated once per transaction. Compared to the tree-walking
// interpreter in eval.go, a Program
//
//   - resolves column positions, bound predicates, and equi-join
//     columns once, at compile time, instead of per evaluation;
//   - fuses σ_p(L × R) into one call of the join kernel (bag.Join), with
//     p split here, once, by the side its conjuncts read: the probe
//     side's run on the probe tuple before the index lookup, the indexed
//     side's on the bucket entry, the rest on a scratch row, and only a
//     pair that passes all three is materialized — as the tuple a bag the
//     State holds (Hold) stores, when one holds the row. The next
//     candidate overwrites the scratch row, so a bound predicate must
//     never retain its argument (closure-purity holds compiled closures
//     to that);
//   - fuses Π(σ_p(L × R)), where the Π is the join's only parent, into
//     the same call — the kernel emits the projected tuples: no wide
//     tuple, no composed key, no intermediate join bag — and Π(σ(E))
//     over any other E into a single pass; the rewrites (rewrite.go) put
//     a view's Π on every join term of its delta;
//   - reads a join side that is a base table under selects off the live
//     table, running the selects on its tuples, and a side R ∸ σ_r(X)
//     through R's index, one lookup in X per bucket entry: neither is
//     materialized. A join fetches its table operands first, and an
//     empty operand ends it before the other is evaluated;
//   - replaces the per-call memo map with slot-indexed DAG-node result
//     caching (plain slice loads, no interface-keyed map);
//   - builds, with a State, every join and every ⊎ of two non-empty
//     operands into a bag the State keeps for the node, which each
//     evaluation clears and refills: the bag keeps its buckets by
//     Clear's rule instead of growing a map from empty every time;
//   - hands a root over uncloned when the evaluation built its bag and
//     nothing else refers to it (fresh, Owned), and a State then forgets
//     it; roots that can alias storage, a literal or another slot are
//     cloned by Eval. EvalBorrowed lends every root, read-only — with a
//     State, Owned ones too, until the State's next evaluation;
//   - joins against a base table through that table's own hash index
//     (bag.IndexOn): one index per table and column set, shared by every
//     term, program and view, and caught up from the bag's mutation
//     journal, so a propagate probes it with only the delta-sized side
//     and never rebuilds it from the full table;
//   - evaluates one-shot (Eval with a nil State) by reading alone — how
//     core materializes a view at DefineView and recomputes it.
//
// The interpreter remains the semantic oracle: Program results must be
// Eval results, bag-for-bag (asserted by compile_test.go and
// FuzzCompiledEval).

// Stats reports work counters from one Program evaluation.
type Stats struct {
	// IndexProbeTuples counts candidate pairs examined by joins: the
	// index-bucket entries of the probe tuples that passed their own
	// side's conjuncts — the work actually done where a nested-loop
	// rescan would have paid |L|·|R|.
	IndexProbeTuples int64
	// IndexBuildTuples counts tuples put into join indexes: a table's
	// index catching up with its journal (delta-sized after the first
	// use, which costs the table's distinct count) and throw-away
	// indexes over transient operands alike.
	IndexBuildTuples int64
}

// Program is one or more expressions compiled, as a shared DAG, into a
// slot-indexed sequence of fused closures. A Program is immutable and
// safe for concurrent use with distinct States.
type Program struct {
	nodes []cnode
	roots []int
	// owned marks the roots Eval hands over instead of cloning (fresh).
	owned []bool
}

// cnode computes one DAG node's value in a given evaluation state.
// Results are cached per State slot and must never be mutated.
type cnode func(st *State) (*bag.Bag, error)

// State is the reusable per-evaluator scratch of a Program: the DAG-node
// result slots for the evaluation in flight, and the bags its nodes
// build. A State must not be shared by concurrent Eval calls; use one
// State per worker (or nil per call).
type State struct {
	src   Source
	slots []*bag.Bag
	// bags holds, per slot, the bag that slot's node builds its value
	// into, for the nodes that build one the State keeps — joins and the
	// ⊎ of two non-empty operands. Each evaluation Clears them and the
	// nodes refill them, so a bag keeps its buckets by Clear's retention
	// rule instead of growing a new map from empty every time; Eval hands
	// an Owned root's bag over, and the State forgets it. A one-shot
	// state keeps none: its nodes build new bags.
	bags []*bag.Bag
	// roots is the slice EvalBorrowed returns.
	roots []*bag.Bag
	// held is what Hold set for the evaluation in flight: the bags every
	// join looks a new output row up in before it makes a tuple for it.
	held []*bag.Bag
	// oneShot marks the throwaway state of Eval(nil, …): the evaluation
	// must leave the source's bags exactly as it found them.
	oneShot bool
	probed  int64
	built   int64
}

// NewState allocates an evaluation state for the program.
func (p *Program) NewState() *State {
	return &State{
		slots: make([]*bag.Bag, len(p.nodes)),
		bags:  make([]*bag.Bag, len(p.nodes)),
		roots: make([]*bag.Bag, len(p.roots)),
	}
}

// Hold sets the bags the next evaluation with st reads as holders: each
// join looks every row new to its output up in them, in order, and
// stores the first holder's tuple instead of making one
// (bag.Join.Indexed's held). They are only read, never kept past that
// evaluation, and change no answer: a view's maintenance holds its MV
// and △MV, so the rows a deletion reaches, and the insertions the view
// already has, cost no tuple.
func (st *State) Hold(bags ...*bag.Bag) { st.held = append(st.held[:0], bags...) }

// out returns the empty bag the node at slot builds its value into: the
// State's own, which the evaluation has cleared, or in a one-shot
// evaluation a new one.
func (st *State) out(slot int) *bag.Bag {
	if st.oneShot {
		return bag.New()
	}
	b := st.bags[slot]
	if b == nil {
		b = bag.New()
		st.bags[slot] = b
	}
	return b
}

// Eval evaluates every root against src, in registration order,
// returning bags the caller owns (they never alias storage, literals, or
// internal caches): EvalBorrowed, plus a Clone of every root that
// evaluation only borrowed. An Owned root is handed over as it is, and
// a State forgets it: its next evaluation builds that root into a new
// bag. The caller must not mutate the source's tables during the call.
//
// Passing a State says the caller evaluates this program again and
// again and is the one who may mutate the source: joins against a base
// table then use (creating it on first use) the table's own index, which
// writes the bag's index set though never its contents. With a nil st
// the evaluation is one-shot and only reads — every join indexes its
// smaller side and throws the index away — so it is safe under read
// locks and leaves no index or journal behind on a live table.
func (p *Program) Eval(st *State, src Source) ([]*bag.Bag, Stats, error) {
	out, stats, err := p.EvalBorrowed(st, src)
	if err != nil {
		return nil, stats, err
	}
	if st != nil {
		out = append([]*bag.Bag(nil), out...) // st.roots is lent too
	}
	for i, b := range out {
		switch {
		case !p.owned[i]:
			out[i] = b.Clone()
		case st != nil:
			st.bags[p.roots[i]] = nil
		}
	}
	return out, stats, nil
}

// Owned reports whether root i's result belongs to the caller outright —
// the evaluation built the bag and nothing else refers to it — rather
// than being borrowed (see EvalBorrowed). It is a property of the
// compiled expression, not of one evaluation.
func (p *Program) Owned(i int) bool { return p.owned[i] }

// EvalBorrowed is Eval without the final copy, for a consumer that only
// reads the answer. A root that is not Owned comes back as the bag
// evaluation found it: a live table of src (SELECT * FROM t is the table
// itself), a compiled literal, or a value another root shares. Such a
// bag is read-only, and it is the caller's only for as long as the
// caller keeps the source's tables from changing — until the locks the
// evaluation ran under are released, or the next write of a
// single-session owner; whatever must outlive that is cloned first.
//
// With a State, every root is lent, the returned slice too, until the
// next evaluation with that State: an Owned root is a bag the State
// keeps and that evaluation clears and refills, so a caller evaluating
// again and again builds into the same bags. With a nil State, Owned
// roots are the caller's to keep and mutate, as with Eval.
func (p *Program) EvalBorrowed(st *State, src Source) ([]*bag.Bag, Stats, error) {
	if st == nil {
		st = &State{slots: make([]*bag.Bag, len(p.nodes)), roots: make([]*bag.Bag, len(p.roots)), oneShot: true}
	}
	st.src = src
	clear(st.slots)
	for _, b := range st.bags {
		if b != nil {
			b.Clear()
		}
	}
	st.probed = 0
	st.built = 0
	out := st.roots
	for i, slot := range p.roots {
		b, err := p.get(st, slot)
		if err != nil {
			st.end()
			return nil, Stats{}, err
		}
		out[i] = b
	}
	stats := Stats{IndexProbeTuples: st.probed, IndexBuildTuples: st.built}
	st.end()
	return out, stats, nil
}

// end drops what st referred to for the evaluation just ended: its
// source and its holders.
func (st *State) end() {
	st.src = nil
	clear(st.held)
	st.held = st.held[:0]
}

// get returns the slot's value, computing and caching it on first use
// within the current evaluation.
func (p *Program) get(st *State, slot int) (*bag.Bag, error) {
	if b := st.slots[slot]; b != nil {
		return b, nil
	}
	b, err := p.nodes[slot](st)
	if err != nil {
		return nil, err
	}
	st.slots[slot] = b
	return b, nil
}

// Compile lowers the given expression roots — treated as one DAG, with
// shared nodes compiled once — into a Program. Literal bags are cloned
// at compile time: a Program is a snapshot of its literals, deliberately
// decoupled from later caller mutations (the interpreter, by contrast,
// reads literals live).
func Compile(roots ...Expr) (*Program, error) {
	if len(roots) == 0 {
		return nil, fmt.Errorf("algebra: compile: no roots")
	}
	c := &compiler{
		p:     &Program{},
		slots: make(map[Expr]int),
		refs:  make(map[Expr]int),
	}
	// Distribute joins over the ∸/⊎ base-table adjustments the kernel
	// cannot read, and Π over ⊎, first (see rewrite.go), so the emitted
	// joins probe the live base bags' own indexes rather than index
	// per-evaluation materializations, and emit projected tuples.
	memo := make(map[Expr]Expr)
	rewritten := make([]Expr, len(roots))
	for i, r := range roots {
		rw, err := distributeJoins(r, memo)
		if err != nil {
			return nil, err
		}
		rewritten[i] = rw
	}
	for _, r := range rewritten {
		c.countRefs(r)
	}
	for _, r := range rewritten {
		slot, err := c.compile(r)
		if err != nil {
			return nil, err
		}
		c.p.roots = append(c.p.roots, slot)
		c.p.owned = append(c.p.owned, c.fresh(r))
	}
	return c.p, nil
}

// compiler carries the compile-time maps: node → slot for DAG sharing
// and node → parent-edge count for fusion decisions.
type compiler struct {
	p     *Program
	slots map[Expr]int
	refs  map[Expr]int
}

// countRefs counts parent edges per node (each encounter is one edge;
// children are walked on first encounter only, so the pass is linear in
// DAG size). A node with more than one parent must keep its own slot —
// fusing it into a parent would duplicate its work.
func (c *compiler) countRefs(e Expr) {
	c.refs[e]++
	if c.refs[e] > 1 {
		return
	}
	switch n := e.(type) {
	case *Literal, *Base:
	case *Select:
		c.countRefs(n.Child)
	case *Project:
		c.countRefs(n.Child)
	case *DupElim:
		c.countRefs(n.Child)
	case *UnionAll:
		c.countRefs(n.L)
		c.countRefs(n.R)
	case *Monus:
		c.countRefs(n.L)
		c.countRefs(n.R)
	case *Product:
		c.countRefs(n.L)
		c.countRefs(n.R)
	}
}

// fresh reports whether root e's bag is the caller's alone: e is referred
// to once, down through any renamings (ρ(E) is E's bag), and bottoms at a
// node that builds a new bag every time. Tables and literals are storage,
// ⊎ and ∸ return an operand when the other is empty, and a shared node's
// bag sits in a slot other nodes read.
func (c *compiler) fresh(e Expr) bool {
	for c.refs[e] == 1 {
		switch n := e.(type) {
		case *Select, *DupElim, *Product:
			return true
		case *Project:
			if !n.rename {
				return true
			}
			e = n.Child
		default:
			return false
		}
	}
	return false
}

// compile returns the slot computing e, emitting its closure (and its
// children's) on first encounter.
func (c *compiler) compile(e Expr) (int, error) {
	if slot, ok := c.slots[e]; ok {
		return slot, nil
	}
	if rho, ok := e.(*Project); ok && rho.rename {
		// ρ(E) is E's bag: no node of its own.
		slot, err := c.compile(rho.Child)
		c.slots[e] = slot
		return slot, err
	}
	// Reserve the slot before compiling children so shared nodes resolve
	// to it even through cycles of sharing (the DAG itself is acyclic).
	slot := len(c.p.nodes)
	c.p.nodes = append(c.p.nodes, nil)
	c.slots[e] = slot

	fn, err := c.emit(e, slot)
	if err != nil {
		return 0, err
	}
	c.p.nodes[slot] = fn
	return slot, nil
}

// emit builds the closure for one node, at slot, applying the fusion
// rules.
func (c *compiler) emit(e Expr, slot int) (cnode, error) {
	switch n := e.(type) {
	case *Literal:
		// Snapshot: decouple the program from later mutations of the
		// caller's literal bag.
		lit := n.Bag.Clone()
		return func(*State) (*bag.Bag, error) { return lit, nil }, nil

	case *Base:
		name := n.Name
		return func(st *State) (*bag.Bag, error) { return st.src.Bag(name) }, nil

	case *Select:
		if prod, ok := n.Child.(*Product); ok && c.refs[prod] == 1 {
			return c.emitJoin(slot, n, prod, nil)
		}
		bound := n.bound
		return c.unary(n.Child, func(b *bag.Bag) *bag.Bag { return bag.Select(b, bound) })

	case *Project:
		pos := n.positions
		// Fuse Π(σ(E)) into one pass when the select has no other
		// parent (a shared select keeps its own cached slot): a join
		// that emits projected tuples when E is a product, a filtering
		// projection otherwise.
		if sel, ok := n.Child.(*Select); ok && c.refs[sel] == 1 {
			if prod, isProd := sel.Child.(*Product); !isProd {
				bound := sel.bound
				return c.unary(sel.Child, func(b *bag.Bag) *bag.Bag {
					out := bag.New()
					b.Each(func(t schema.Tuple, cnt int) {
						if bound(t) {
							out.Add(t.Project(pos), cnt)
						}
					})
					return out
				})
			} else if c.refs[prod] == 1 {
				return c.emitJoin(slot, sel, prod, pos)
			}
		}
		return c.unary(n.Child, func(b *bag.Bag) *bag.Bag {
			return bag.Project(b, func(t schema.Tuple) schema.Tuple { return t.Project(pos) })
		})

	case *DupElim:
		return c.unary(n.Child, bag.DupElim)

	case *UnionAll:
		return c.binary(n.L, n.R, func(st *State, l, r *bag.Bag) *bag.Bag {
			// Empty-side shortcuts return the other slot's bag
			// uncloned; slots are never mutated and roots are cloned
			// or lent, so the alias is safe.
			switch {
			case l.Empty():
				return r
			case r.Empty():
				return l
			case st.oneShot:
				return bag.UnionAll(l, r)
			}
			return st.out(slot).AddBag(l).AddBag(r)
		})

	case *Monus:
		return c.binary(n.L, n.R, func(_ *State, l, r *bag.Bag) *bag.Bag {
			if l.Empty() || r.Empty() {
				return l
			}
			return bag.Monus(l, r)
		})

	case *Product:
		return c.binary(n.L, n.R, func(_ *State, l, r *bag.Bag) *bag.Bag {
			if l.Empty() || r.Empty() {
				return bag.New()
			}
			return bag.Product(l, r)
		})
	}
	return nil, fmt.Errorf("algebra: compile: unknown node %T", e)
}

// joinSide is one operand of σ_p(L × R) as the join kernel reads it:
// the expression its slot computes — for a base table under selects,
// the table itself, with the selects' predicates run on its tuples —
// and, for a side R ∸ σ_keep(X) (readable), the subtrahend X. own
// says the side is a table whose own index the join may probe: a table
// read whole that is not a change table (NewDelta), or the R of R ∸ X.
// A change table, or a table read under selects (filtered on the fly),
// is indexed, if at all, for the one join: a change table's bag is
// rewritten or emptied at every transaction or refresh, and an index on
// it would be synced at every write for one probe.
type joinSide struct {
	expr  Expr
	preds []Predicate // bind against expr's schema
	sub   Expr
	keep  []Predicate // bind against sub's schema
	own   bool
}

// sideOf takes one operand of a join apart; readSub says whether this
// side may be read through a subtrahend (only one side of a join is).
func sideOf(e Expr, readSub bool) joinSide {
	if readSub && readable(e) {
		m := under(e).(*Monus)
		b, q := peelSelects(m.L)
		x, r := peelAll(m.R)
		return joinSide{expr: b, preds: q, sub: x, keep: r, own: true}
	}
	if b, q := peelSelects(e); len(q) > 0 {
		return joinSide{expr: b, preds: q}
	}
	b, ok := under(e).(*Base)
	return joinSide{expr: e, own: ok && !b.delta}
}

// emitJoin lowers σ_p(L × R), under Π_project when project is not nil,
// into one bag.Join. The predicate is taken apart here, once: its
// cross-side equalities become the join columns (and stay among the
// cross conjuncts — an index key only narrows the candidates), and its
// conjuncts are bound to the schema of the one side they read, so the
// kernel rejects a probe tuple before the lookup and a bucket entry
// before any row exists; the selects peeled off a base-table side
// (sideOf) join that side's conjuncts. A side R ∸ σ_r(X) — the right
// one, when both are — is probed through R's own index, read as
// R ∸ σ_r(X); otherwise a side that is a base table read whole (under
// any renaming) is, the larger table's when both are: across
// propagates that is the stable base and the other side the delta.
// One-shot evaluations, joins with no column to key on and joins with
// no such side index the smaller side for the duration of the join,
// after materializing an R ∸ σ_r(X). The operands are evaluated tables
// first, since fetching one costs nothing, and an empty one ends the
// join before the other is evaluated. The join's output, empty or not,
// is the bag the State keeps for the node at slot (State.out).
func (c *compiler) emitJoin(slot int, s *Select, prod *Product, project []int) (cnode, error) {
	lpos, rpos := joinColumns(s.Pred, prod)
	rside := sideOf(prod.R, true)
	sides := [2]joinSide{sideOf(prod.L, rside.sub == nil), rside}
	left, right, cross := splitConjuncts(s.Pred, prod)
	join := &bag.Join{Project: project}
	var errs [7]error
	join.Left, errs[0] = bindSide(left, prod.L.Schema(), sides[0].preds, sides[0].expr.Schema())
	join.Right, errs[1] = bindSide(right, prod.R.Schema(), sides[1].preds, sides[1].expr.Schema())
	join.Cross, errs[2] = bindAll(cross, prod.sch)
	p := c.p
	var slots [2]int
	subAt, subSlot := -1, -1
	for i, side := range sides {
		slots[i], errs[3+i] = c.compile(side.expr)
		if side.sub != nil {
			subAt = i
			join.Keep, errs[5] = bindAll(side.keep, side.sub.Schema())
			subSlot, errs[6] = c.compile(side.sub)
		}
	}
	if err := errors.Join(errs[:]...); err != nil {
		return nil, err
	}
	order := [2]int{0, 1}
	if !isBase(sides[0].expr) && isBase(sides[1].expr) {
		order = [2]int{1, 0}
	}
	lOwn, rOwn := sides[0].own, sides[1].own
	return func(st *State) (*bag.Bag, error) {
		var ops [2]*bag.Bag
		for _, i := range order {
			b, err := p.get(st, slots[i])
			if err != nil {
				return nil, err
			}
			if b.Empty() {
				return st.out(slot), nil
			}
			ops[i] = b
		}
		var sub *bag.Bag
		if subSlot >= 0 {
			b, err := p.get(st, subSlot)
			if err != nil {
				return nil, err
			}
			if !b.Empty() {
				sub = b
			}
		}
		l, r := ops[0], ops[1]
		out := st.out(slot)
		var ix *bag.Index
		var probed, built int
		switch {
		case st.oneShot || len(lpos) == 0 || !(lOwn || rOwn):
			if sub != nil {
				if join.Keep != nil {
					sub = bag.Select(sub, join.Keep)
				}
				ops[subAt] = bag.Monus(ops[subAt], sub)
			}
			probed, built = join.Hash(out, ops[0], lpos, ops[1], rpos, st.held)
		case subAt == 0 || subAt < 0 && lOwn && (!rOwn || l.Distinct() >= r.Distinct()):
			ix, built = l.IndexOn(lpos)
			probed = join.Indexed(out, r, rpos, ix, sub, true, st.held)
		default:
			ix, built = r.IndexOn(rpos)
			probed = join.Indexed(out, l, lpos, ix, sub, false, st.held)
		}
		st.probed += int64(probed)
		st.built += int64(built)
		return out, nil
	}, nil
}

// bindSide binds one side's conjuncts of a join predicate against the
// side's schema and the selects peeled off it against the schema of
// what they were peeled off; both hold of a tuple the kernel keeps.
func bindSide(conjuncts []Predicate, sch *schema.Schema, peeled []Predicate, peeledSch *schema.Schema) (func(schema.Tuple) bool, error) {
	f, err := bindAll(conjuncts, sch)
	if err != nil {
		return nil, err
	}
	g, err := bindAll(peeled, peeledSch)
	switch {
	case err != nil:
		return nil, err
	case f == nil:
		return g, nil
	case g == nil:
		return f, nil
	}
	return func(t schema.Tuple) bool { return f(t) && g(t) }, nil
}

// bindAll binds the conjunction of conjuncts against sch; none at all is
// nil, the kernel's TRUE.
func bindAll(conjuncts []Predicate, sch *schema.Schema) (func(schema.Tuple) bool, error) {
	if len(conjuncts) == 0 {
		return nil, nil
	}
	return AndOf(conjuncts...).Bind(sch)
}

// unary compiles child and returns the node that applies op to its value.
func (c *compiler) unary(child Expr, op func(*bag.Bag) *bag.Bag) (cnode, error) {
	p := c.p
	slot, err := c.compile(child)
	if err != nil {
		return nil, err
	}
	return func(st *State) (*bag.Bag, error) {
		b, err := p.get(st, slot)
		if err != nil {
			return nil, err
		}
		return op(b), nil
	}, nil
}

// binary is unary for two operands; op also sees the state, where joins
// keep their work counters.
func (c *compiler) binary(l, r Expr, op func(st *State, l, r *bag.Bag) *bag.Bag) (cnode, error) {
	p := c.p
	ls, err := c.compile(l)
	if err != nil {
		return nil, err
	}
	rs, err := c.compile(r)
	if err != nil {
		return nil, err
	}
	return func(st *State) (*bag.Bag, error) {
		l, err := p.get(st, ls)
		if err != nil {
			return nil, err
		}
		r, err := p.get(st, rs)
		if err != nil {
			return nil, err
		}
		return op(st, l, r), nil
	}, nil
}
