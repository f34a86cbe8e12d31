package algebra

import (
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
//   - fuses σ(L × R) into a hash join and Π(σ(E)) into a single pass;
//   - replaces the per-call memo map with slot-indexed DAG-node result
//     caching (plain slice loads, no interface-keyed map);
//   - joins against a base table through that table's own hash index
//     (bag.IndexOn): one index per table and column set, shared by every
//     term, program and view, and caught up from the bag's mutation
//     journal, so a propagate probes it with only the delta-sized side
//     and never rebuilds it from the full table.
//
// The interpreter remains the semantic oracle: Program results must be
// Eval results, bag-for-bag (asserted by compile_test.go and
// FuzzCompiledEval).

// Stats reports work counters from one Program evaluation.
type Stats struct {
	// IndexProbeTuples counts candidate pairs examined by indexed hash
	// joins — the work actually done where a nested-loop rescan would
	// have paid |L|·|R|.
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
}

// cnode computes one DAG node's value in a given evaluation state.
// Results are cached per State slot and must never be mutated.
type cnode func(st *State) (*bag.Bag, error)

// State is the reusable per-evaluator scratch of a Program: the DAG-node
// result slots for the evaluation in flight. A State must not be shared
// by concurrent Eval calls; use one State per worker (or nil per call).
type State struct {
	src   Source
	slots []*bag.Bag
	// oneShot marks the throwaway state of Eval(nil, …): the evaluation
	// must leave the source's bags exactly as it found them.
	oneShot bool
	probed  int64
	built   int64
}

// NewState allocates an evaluation state for the program.
func (p *Program) NewState() *State {
	return &State{slots: make([]*bag.Bag, len(p.nodes))}
}

// Roots returns the number of compiled root expressions.
func (p *Program) Roots() int { return len(p.roots) }

// Eval evaluates every root against src, in registration order,
// returning bags the caller owns (they never alias storage, literals, or
// internal caches). The caller must not mutate the source's tables
// during the call.
//
// Passing a State says the caller evaluates this program again and
// again and is the one who may mutate the source: joins against a base
// table then use (creating it on first use) the table's own index, which
// writes the bag's index set though never its contents. With a nil st
// the evaluation is one-shot and only reads — every join indexes its
// smaller side and throws the index away — so it is safe under read
// locks and leaves no index or journal behind on a live table.
func (p *Program) Eval(st *State, src Source) ([]*bag.Bag, Stats, error) {
	if st == nil {
		st = p.NewState()
		st.oneShot = true
	}
	st.src = src
	for i := range st.slots {
		st.slots[i] = nil
	}
	st.probed = 0
	st.built = 0
	out := make([]*bag.Bag, len(p.roots))
	for i, slot := range p.roots {
		b, err := p.get(st, slot)
		if err != nil {
			st.src = nil
			return nil, Stats{}, err
		}
		out[i] = b.Clone()
	}
	stats := Stats{IndexProbeTuples: st.probed, IndexBuildTuples: st.built}
	st.src = nil
	return out, stats, nil
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
	// Distribute joins over the ∸/⊎ base-table adjustments first (see
	// rewrite.go) so the emitted hash joins probe the live base bags' own
	// indexes rather than index per-evaluation materializations.
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

	fn, err := c.emit(e)
	if err != nil {
		return 0, err
	}
	c.p.nodes[slot] = fn
	return slot, nil
}

// emit builds the closure for one node, applying the fusion rules.
func (c *compiler) emit(e Expr) (cnode, error) {
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
			return c.emitJoin(n, prod)
		}
		bound := n.bound
		return c.unary(n.Child, func(b *bag.Bag) *bag.Bag { return bag.Select(b, bound) })

	case *Project:
		pos := n.positions
		// Fuse Π(σ(E)) into one pass when the select has no other
		// parent (a shared select keeps its own cached slot).
		if sel, ok := n.Child.(*Select); ok && c.refs[sel] == 1 {
			if _, isProd := sel.Child.(*Product); !isProd {
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
			}
		}
		return c.unary(n.Child, func(b *bag.Bag) *bag.Bag {
			return bag.Project(b, func(t schema.Tuple) schema.Tuple { return t.Project(pos) })
		})

	case *DupElim:
		return c.unary(n.Child, bag.DupElim)

	case *UnionAll:
		return c.binary(n.L, n.R, func(_ *State, l, r *bag.Bag) *bag.Bag {
			// Empty-side shortcuts return the other slot's bag
			// uncloned; slots are never mutated and roots are cloned,
			// so the alias is safe.
			if l.Empty() {
				return r
			}
			if r.Empty() {
				return l
			}
			return bag.UnionAll(l, r)
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

// emitJoin lowers σ_p(L × R) into a hash join. The equi-join columns are
// resolved once here; the full predicate is still re-applied to every
// joined tuple, so residual conjuncts need no special handling. A side
// that is a base table (under any renaming) is probed through the
// table's own index — the larger table's when both sides are: across
// propagates that is the stable base and the other side the delta.
// One-shot evaluations and joins of two derived operands index the
// smaller side for the duration of the join.
func (c *compiler) emitJoin(s *Select, prod *Product) (cnode, error) {
	bound := s.bound
	lpos, rpos := joinColumns(s.Pred, prod.L.Schema(), prod.R.Schema())
	lBase, rBase := isBase(prod.L), isBase(prod.R)
	return c.binary(prod.L, prod.R, func(st *State, l, r *bag.Bag) *bag.Bag {
		var out *bag.Bag
		var probed, built int
		switch {
		case l.Empty() || r.Empty():
			return bag.New()
		case len(lpos) == 0:
			// No cross-side equality to key an index on: filtered
			// nested-loop product, exactly as the interpreter.
			return bag.ProductSelect(l, r, bound)
		case st.oneShot || !(lBase || rBase):
			out, probed, built = bag.HashJoin(l, lpos, r, rpos, bound)
		case lBase && (!rBase || l.Distinct() >= r.Distinct()):
			var ix *bag.Index
			ix, built = l.IndexOn(lpos)
			out, probed = bag.JoinIndexed(r, rpos, ix, true, bound)
		default:
			var ix *bag.Index
			ix, built = r.IndexOn(rpos)
			out, probed = bag.JoinIndexed(l, lpos, ix, false, bound)
		}
		st.probed += int64(probed)
		st.built += int64(built)
		return out
	})
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
