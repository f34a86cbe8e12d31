package algebra

import (
	"fmt"

	"dvm/internal/bag"
	"dvm/internal/schema"
)

// Source supplies the bags of named base tables: a database state in the
// paper's sense. storage.Database implements it.
type Source interface {
	Bag(name string) (*bag.Bag, error)
}

// MapSource is a Source backed by a plain map; convenient for tests.
type MapSource map[string]*bag.Bag

// Bag implements Source.
func (m MapSource) Bag(name string) (*bag.Bag, error) {
	b, ok := m[name]
	if !ok {
		return nil, fmt.Errorf("algebra: no table %q in state", name)
	}
	return b, nil
}

// Eval evaluates e in the database state src and returns a bag the caller
// owns (it never aliases stored tables).
//
// Shared subexpressions are memoized by node identity: the differential
// algorithms of the delta package emit expression DAGs in which the same
// node appears many times (E, DEL(E), and friends), and without
// memoization evaluation cost grows exponentially in nesting depth.
func Eval(e Expr, src Source) (*bag.Bag, error) {
	ctx := &evalCtx{src: src, memo: make(map[Expr]*bag.Bag)}
	b, err := ctx.eval(e)
	if err != nil {
		return nil, err
	}
	// Results may alias the memo table or live storage; hand the caller
	// a private copy.
	return b.Clone(), nil
}

// Evaluator evaluates multiple expressions against ONE database state,
// sharing the memo table across calls. Use it when several related
// queries (e.g. a view's ▼(L,Q) and ▲(L,Q), which share most of their
// DAG) must be evaluated against the same snapshot. The caller must not
// mutate the state between Eval calls.
type Evaluator struct {
	ctx *evalCtx
}

// NewEvaluator builds an evaluator over a fixed state.
func NewEvaluator(src Source) *Evaluator {
	return &Evaluator{ctx: &evalCtx{src: src, memo: make(map[Expr]*bag.Bag)}}
}

// Eval evaluates e, returning a bag the caller owns.
func (ev *Evaluator) Eval(e Expr) (*bag.Bag, error) {
	b, err := ev.ctx.eval(e)
	if err != nil {
		return nil, err
	}
	return b.Clone(), nil
}

// evalCtx carries the state and the per-evaluation memo table.
type evalCtx struct {
	src  Source
	memo map[Expr]*bag.Bag
}

// eval returns the memoized result for e, computing it on first use.
// Results alias the memo table (and, for Base/Literal, live storage or
// literal bags) and must not be mutated.
func (ctx *evalCtx) eval(e Expr) (*bag.Bag, error) {
	if b, ok := ctx.memo[e]; ok {
		return b, nil
	}
	b, err := ctx.evalNode(e)
	if err != nil {
		return nil, err
	}
	ctx.memo[e] = b
	return b, nil
}

func (ctx *evalCtx) evalNode(e Expr) (*bag.Bag, error) {
	switch n := e.(type) {
	case *Literal:
		return n.Bag, nil

	case *Base:
		return ctx.src.Bag(n.Name)

	case *Select:
		if p, ok := n.Child.(*Product); ok {
			return ctx.evalJoin(n, p)
		}
		c, err := ctx.eval(n.Child)
		if err != nil {
			return nil, err
		}
		return bag.Select(c, n.bound), nil

	case *Project:
		c, err := ctx.eval(n.Child)
		if err != nil || n.rename {
			return c, err
		}
		pos := n.positions
		return bag.Project(c, func(t schema.Tuple) schema.Tuple { return t.Project(pos) }), nil

	case *DupElim:
		c, err := ctx.eval(n.Child)
		if err != nil {
			return nil, err
		}
		return bag.DupElim(c), nil

	case *UnionAll:
		l, err := ctx.eval(n.L)
		if err != nil {
			return nil, err
		}
		r, err := ctx.eval(n.R)
		if err != nil {
			return nil, err
		}
		return bag.UnionAll(l, r), nil

	case *Monus:
		l, err := ctx.eval(n.L)
		if err != nil {
			return nil, err
		}
		r, err := ctx.eval(n.R)
		if err != nil {
			return nil, err
		}
		return bag.Monus(l, r), nil

	case *Product:
		l, err := ctx.eval(n.L)
		if err != nil {
			return nil, err
		}
		r, err := ctx.eval(n.R)
		if err != nil {
			return nil, err
		}
		if l.Empty() || r.Empty() {
			return bag.New(), nil
		}
		return bag.Product(l, r), nil
	}
	return nil, fmt.Errorf("algebra: eval: unknown node %T", e)
}

// evalJoin evaluates σ_p(L × R), using a hash join when p contains
// cross-side attribute equalities, and falling back to a filtered
// nested-loop product otherwise. The full predicate is always re-applied
// to joined tuples, so residual conjuncts need no special handling.
func (ctx *evalCtx) evalJoin(s *Select, p *Product) (*bag.Bag, error) {
	l, err := ctx.eval(p.L)
	if err != nil {
		return nil, err
	}
	r, err := ctx.eval(p.R)
	if err != nil {
		return nil, err
	}
	// An empty side joins to nothing; skip building and probing. Delta
	// expressions hit this constantly (a quiet table's log term is ∅),
	// and without the exit the probe loop still scans the full other
	// side against an empty hash table.
	if l.Empty() || r.Empty() {
		return bag.New(), nil
	}
	lpos, rpos := joinColumns(s.Pred, p)
	if len(lpos) == 0 {
		return bag.ProductSelect(l, r, s.bound), nil
	}

	// Build on the smaller side, probe with the larger.
	build, probe := r, l
	buildPos, probePos := rpos, lpos
	swapped := false
	if l.Distinct() < r.Distinct() {
		build, probe = l, r
		buildPos, probePos = lpos, rpos
		swapped = true
	}
	type bucket struct {
		t schema.Tuple
		n int
	}
	// Map order is harmless: the buckets are consumed commutatively
	// (integer counts folded into a bag). Each row's join key is encoded
	// into one reused buffer: a lookup by string(key) copies nothing, and
	// only a new build key is copied, to be the map's key.
	groups := make(map[string]int, build.Distinct()) // join key -> its index in ht
	var ht [][]bucket
	var key []byte
	build.Each(func(t schema.Tuple, n int) {
		key = t.AppendKeyAt(key[:0], buildPos)
		g, ok := groups[string(key)]
		if !ok {
			g = len(ht)
			groups[string(key)] = g
			ht = append(ht, nil)
		}
		ht[g] = append(ht[g], bucket{t: t, n: n})
	})
	out := bag.New()
	probe.Each(func(t schema.Tuple, n int) {
		key = t.AppendKeyAt(key[:0], probePos)
		g, ok := groups[string(key)]
		if !ok {
			return
		}
		for _, b := range ht[g] {
			var joined schema.Tuple
			if swapped {
				joined = b.t.Concat(t) // build side is L
			} else {
				joined = t.Concat(b.t) // probe side is L
			}
			if s.bound(joined) {
				out.Add(joined, n*b.n)
			}
		}
	})
	return out, nil
}

// joinColumns resolves the equi-join pairs of pred, a predicate over
// prod, into positions in prod's left and right schemas. Names resolve
// in the product's schema, where pred is bound — one side's schema alone
// can resolve a name the product gives to the other side. Pairs that do
// not span both sides are ignored (they are enforced by the residual
// predicate check).
func joinColumns(pred Predicate, prod *Product) (lpos, rpos []int) {
	nl := prod.L.Schema().Len()
	pairs, _ := equiPairs(pred)
	for _, pr := range pairs {
		a, aerr := prod.sch.Lookup(pr[0])
		b, berr := prod.sch.Lookup(pr[1])
		if a > b {
			a, b = b, a
		}
		if aerr == nil && berr == nil && a < nl && b >= nl {
			lpos = append(lpos, a)
			rpos = append(rpos, b-nl)
		}
	}
	return lpos, rpos
}
