package lint

import (
	"go/ast"
	"go/types"
)

// dataflow.go is the forward-analysis half of the SSA-lite layer: a
// reusable worklist fixpoint over the funcCFG of ssa.go: iterate to
// stable, then report, function-local and branch-sensitive.
//
// Facts are per-object bitsets. A client defines what the bits mean
// (error-flow: nil/non-nil per error), a transfer function that
// applies a statement's effect, and a refine function that narrows
// facts along a conditional edge. The framework joins with set union —
// at a merge point an object may be in any state it could be in on
// either path — which makes transfer+refine monotone and the fixpoint
// finite.

// fact is a bitset of possible abstract states for one tracked object.
// Bit meanings are private to each client; the framework only unions
// and compares them.
type fact uint16

// flowFacts maps tracked objects to their possible states at a program
// point. An absent object is untracked (bottom), which every client
// treats as "nothing to report".
type flowFacts map[types.Object]fact

func (f flowFacts) clone() flowFacts {
	out := make(flowFacts, len(f))
	for k, v := range f {
		out[k] = v
	}
	return out
}

// joinInto unions src into dst and reports whether dst changed.
func joinInto(dst, src flowFacts) bool {
	changed := false
	for k, v := range src {
		if old, ok := dst[k]; !ok || old|v != old {
			dst[k] = old | v
			changed = true
		}
	}
	return changed
}

// flowClient is one analysis: the statement transfer function and the
// branch refinement. Both mutate facts in place.
type flowClient interface {
	// transfer applies the effect of executing n.
	transfer(n ast.Node, facts flowFacts)
	// refine narrows facts given that cond evaluated to truth. Called
	// on conditional edges only; clients that cannot interpret cond
	// leave facts untouched.
	refine(cond ast.Expr, truth bool, facts flowFacts)
}

// runForward runs the client to fixpoint over cfg, then makes one
// deterministic final pass in block order calling check(node, facts)
// with the facts holding immediately BEFORE each node executes
// (iterate silently, report once stable, so a loop body is judged
// against its stable facts, not its first-visit facts).
// check may be nil to run the fixpoint for its side effects alone.
func runForward(cfg *funcCFG, client flowClient, check func(n ast.Node, facts flowFacts)) {
	if cfg == nil {
		return
	}
	in := make([]flowFacts, len(cfg.blocks))
	for i := range in {
		in[i] = flowFacts{}
	}
	// Seed the worklist with every block, not just the entry: fact
	// propagation re-queues a block only when its in-facts change, and
	// an edge carrying no facts yet would otherwise leave its target
	// unvisited forever.
	queued := make([]bool, len(cfg.blocks))
	work := make([]*cfgBlock, len(cfg.blocks))
	copy(work, cfg.blocks)
	for i := range queued {
		queued[i] = true
	}
	// The lattice per object has at most 16 bits and join only grows
	// sets, so each block re-enters the worklist a bounded number of
	// times; the cap is a belt against a client with a non-monotone
	// transfer, mirroring the lock fixpoint's iteration bound.
	for steps, maxSteps := 0, (len(cfg.blocks)+1)*64; len(work) > 0 && steps < maxSteps; steps++ {
		b := work[0]
		work = work[1:]
		queued[b.id] = false
		out := in[b.id].clone()
		for _, n := range b.nodes {
			client.transfer(n, out)
		}
		for _, e := range b.succ {
			ef := out
			if e.cond != nil {
				ef = out.clone()
				client.refine(e.cond, e.truth, ef)
			}
			if joinInto(in[e.to.id], ef) && !queued[e.to.id] {
				work = append(work, e.to)
				queued[e.to.id] = true
			}
		}
	}
	if check == nil {
		return
	}
	for _, b := range cfg.blocks {
		facts := in[b.id].clone()
		for _, n := range b.nodes {
			check(n, facts)
			client.transfer(n, facts)
		}
	}
}

// nilCompare decomposes a condition into a nil comparison of a plain
// local: for `x == nil`, `nil == x`, `x != nil`, and `!`-wrapped forms
// it returns the compared object and whether truth of the condition
// means the object IS nil. ok is false for anything else (compound
// conditions, field selectors, calls).
func nilCompare(info *types.Info, cond ast.Expr) (obj types.Object, isNil bool, ok bool) {
	cond = ast.Unparen(cond)
	if u, isNot := cond.(*ast.UnaryExpr); isNot && u.Op.String() == "!" {
		obj, isNil, ok = nilCompare(info, u.X)
		return obj, !isNil, ok
	}
	bin, isBin := cond.(*ast.BinaryExpr)
	if !isBin {
		return nil, false, false
	}
	var eq bool
	switch bin.Op.String() {
	case "==":
		eq = true
	case "!=":
		eq = false
	default:
		return nil, false, false
	}
	side := func(e ast.Expr) (types.Object, bool) {
		id, isID := ast.Unparen(e).(*ast.Ident)
		if !isID {
			return nil, false
		}
		o := info.Uses[id]
		return o, o != nil
	}
	if isNilIdent(info, bin.Y) {
		if o, k := side(bin.X); k {
			return o, eq, true
		}
	}
	if isNilIdent(info, bin.X) {
		if o, k := side(bin.Y); k {
			return o, eq, true
		}
	}
	return nil, false, false
}

// isNilIdent reports whether e is the predeclared nil.
func isNilIdent(info *types.Info, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := info.Uses[id].(*types.Nil)
	return isNil || (id.Name == "nil" && info.Uses[id] == nil && info.Defs[id] == nil)
}

// localObj resolves e to the object of a plain local identifier
// (variable, parameter, or named result), or nil. The dataflow clients
// track only these: anything behind a selector or index is aliased
// state the function-local layer cannot reason about.
func localObj(info *types.Info, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if o := info.Defs[id]; o != nil {
		return o
	}
	return info.Uses[id]
}

// eachScope invokes fn once per analyzable function scope in the
// package: every declared body and every function literal body (a
// package-level variable's too), each with its memoized CFG. A literal
// is its own scope — facts do not flow between a function and the
// closures it creates; a closure capturing a tracked value shows up as
// an escape in the outer scope instead.
func eachScope(p *Pass, fn func(body *ast.BlockStmt, cfg *funcCFG)) {
	lits := func(n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				fn(lit.Body, p.Unit.litCFGOf(lit))
			}
			return true
		})
	}
	for _, file := range p.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				lits(decl)
				continue
			}
			if fd.Body != nil {
				fn(fd.Body, p.Unit.cfgOf(fd))
				lits(fd.Body)
			}
		}
	}
}
