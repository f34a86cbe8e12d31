package lint

import "go/ast"

// ssa.go is the function-local half of dvmlint's SSA-lite dataflow
// layer: a simplified control-flow graph per function body.
// "SSA-lite" because values are not renamed — facts stay keyed by
// *types.Var — but the graph carries the two properties real SSA would
// buy here:
//
//   - branch-sensitive edges: every conditional edge records the
//     condition expression and which way it went, so a forward
//     analysis (dataflow.go) can refine facts per branch — the `if
//     err != nil { return err }` shape that error reasoning lives on;
//   - deterministic statement order inside blocks, so defers and
//     discards are seen in execution order.
//
// The graph is deliberately simplified: one node per simple statement
// (conditions appear both as an in-block node, for their side effects,
// and as the edge guard), loops close with a single back edge, and
// terminating calls (panic, os.Exit, log.Fatal*) end their block with
// no successors — the process dies, and no path goes on from it.
// Function literals are NOT inlined: a literal's body is its own CFG
// (built by the analyzer that cares), and the enclosing graph keeps
// the statement containing the literal as an ordinary node.

// cfgEdge is one control transfer. cond is nil for unconditional
// edges; otherwise the edge is taken when cond evaluates to truth.
type cfgEdge struct {
	to    *cfgBlock
	cond  ast.Expr
	truth bool
}

// cfgBlock is one straight-line region: nodes execute in order, then
// control leaves along exactly one of succ.
type cfgBlock struct {
	id    int
	nodes []ast.Node
	succ  []cfgEdge
}

// funcCFG is the simplified control-flow graph of one function body.
// Every path that returns normally ends in a *ast.ReturnStmt node —
// bodies that can fall off the end get a synthesized return (pos at
// the closing brace) — so a check of the exits only ever looks at
// return nodes.
type funcCFG struct {
	entry  *cfgBlock
	exit   *cfgBlock
	blocks []*cfgBlock // in creation (≈ source) order
}

// cfgBuilder carries the under-construction graph and the loop/label
// context for break and continue resolution.
type cfgBuilder struct {
	cfg   *funcCFG
	cur   *cfgBlock
	loops []loopCtx
}

// loopCtx is one enclosing breakable construct: where break jumps,
// where continue jumps (nil for switch/select, which break but do not
// continue), and the label of the enclosing LabeledStmt, if any.
type loopCtx struct {
	label   string
	breakTo *cfgBlock
	contTo  *cfgBlock
}

// buildCFG builds the simplified CFG of a function body. body may be a
// *ast.BlockStmt (declaration or literal body).
func buildCFG(body *ast.BlockStmt) *funcCFG {
	b := &cfgBuilder{cfg: &funcCFG{}}
	b.cfg.exit = b.newBlock() // block 0: the exit
	b.cfg.entry = b.newBlock()
	b.cur = b.cfg.entry
	b.stmtList(body.List, "")
	if b.cur != nil {
		// The body can fall off the end: synthesize the implicit return
		// so exit checks see every normal exit as a ReturnStmt.
		b.append(&ast.ReturnStmt{Return: body.End()})
		b.edge(b.cur, b.cfg.exit, nil, false)
		b.cur = nil
	}
	return b.cfg
}

func (b *cfgBuilder) newBlock() *cfgBlock {
	blk := &cfgBlock{id: len(b.cfg.blocks)}
	b.cfg.blocks = append(b.cfg.blocks, blk)
	return blk
}

func (b *cfgBuilder) append(n ast.Node) {
	if b.cur != nil {
		b.cur.nodes = append(b.cur.nodes, n)
	}
}

func (b *cfgBuilder) edge(from, to *cfgBlock, cond ast.Expr, truth bool) {
	if from != nil && to != nil {
		from.succ = append(from.succ, cfgEdge{to: to, cond: cond, truth: truth})
	}
}

// stmtList lowers a statement sequence into the graph. label is the
// pending label for the next breakable statement (set by LabeledStmt).
func (b *cfgBuilder) stmtList(list []ast.Stmt, label string) {
	for _, s := range list {
		b.stmt(s, label)
		label = ""
	}
}

// findLoop resolves a break/continue target; empty label means the
// innermost context. cont selects the continue target.
func (b *cfgBuilder) findLoop(label string, cont bool) *cfgBlock {
	for i := len(b.loops) - 1; i >= 0; i-- {
		lc := b.loops[i]
		if label != "" && lc.label != label {
			continue
		}
		if cont {
			if lc.contTo == nil {
				continue // switch/select: continue belongs to an outer loop
			}
			return lc.contTo
		}
		return lc.breakTo
	}
	return b.cfg.exit // unresolvable (stray goto-like): be conservative
}

func (b *cfgBuilder) stmt(s ast.Stmt, label string) {
	if b.cur == nil {
		// Unreachable code after return/branch/terminating call: park it
		// in a fresh predecessor-less block so its nodes still exist (an
		// analyzer walking them sees empty facts).
		b.cur = b.newBlock()
	}
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List, "")

	case *ast.LabeledStmt:
		b.stmt(s.Stmt, s.Label.Name)

	case *ast.ReturnStmt:
		b.append(s)
		b.edge(b.cur, b.cfg.exit, nil, false)
		b.cur = nil

	case *ast.BranchStmt:
		lbl := ""
		if s.Label != nil {
			lbl = s.Label.Name
		}
		switch s.Tok.String() {
		case "break":
			b.edge(b.cur, b.findLoop(lbl, false), nil, false)
			b.cur = nil
		case "continue":
			b.edge(b.cur, b.findLoop(lbl, true), nil, false)
			b.cur = nil
		case "goto":
			// Rare and unstructured: treat as leaving the function so no
			// fact flows along an edge we cannot place.
			b.edge(b.cur, b.cfg.exit, nil, false)
			b.cur = nil
		case "fallthrough":
			// Handled by the switch lowering (the case body's natural
			// successor); nothing to do here.
		}

	case *ast.IfStmt:
		if s.Init != nil {
			b.append(s.Init)
		}
		b.append(s.Cond)
		head := b.cur
		after := b.newBlock()
		thenB := b.newBlock()
		b.edge(head, thenB, s.Cond, true)
		b.cur = thenB
		b.stmtList(s.Body.List, "")
		b.edge(b.cur, after, nil, false)
		if s.Else != nil {
			elseB := b.newBlock()
			b.edge(head, elseB, s.Cond, false)
			b.cur = elseB
			b.stmt(s.Else, "")
			b.edge(b.cur, after, nil, false)
		} else {
			b.edge(head, after, s.Cond, false)
		}
		b.cur = after

	case *ast.ForStmt:
		if s.Init != nil {
			b.append(s.Init)
		}
		head := b.newBlock()
		b.edge(b.cur, head, nil, false)
		after := b.newBlock()
		body := b.newBlock()
		var post *cfgBlock
		if s.Post != nil {
			post = b.newBlock()
			post.nodes = append(post.nodes, s.Post)
			b.edge(post, head, nil, false)
		}
		contTo := head
		if post != nil {
			contTo = post
		}
		b.cur = head
		if s.Cond != nil {
			b.append(s.Cond)
			b.edge(head, body, s.Cond, true)
			b.edge(head, after, s.Cond, false)
		} else {
			b.edge(head, body, nil, false)
		}
		b.loops = append(b.loops, loopCtx{label: label, breakTo: after, contTo: contTo})
		b.cur = body
		b.stmtList(s.Body.List, "")
		b.edge(b.cur, contTo, nil, false)
		b.loops = b.loops[:len(b.loops)-1]
		b.cur = after

	case *ast.RangeStmt:
		head := b.newBlock()
		b.edge(b.cur, head, nil, false)
		head.nodes = append(head.nodes, s) // the range header defines Key/Value
		after := b.newBlock()
		body := b.newBlock()
		b.edge(head, body, nil, false)
		b.edge(head, after, nil, false)
		b.loops = append(b.loops, loopCtx{label: label, breakTo: after, contTo: head})
		b.cur = body
		b.stmtList(s.Body.List, "")
		b.edge(b.cur, head, nil, false)
		b.loops = b.loops[:len(b.loops)-1]
		b.cur = after

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.append(s.Init)
		}
		if s.Tag != nil {
			b.append(s.Tag)
		}
		b.lowerSwitch(s.Body.List, s.Tag == nil, label)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.append(s.Init)
		}
		b.append(s.Assign)
		b.lowerSwitch(s.Body.List, false, label)

	case *ast.SelectStmt:
		head := b.cur
		after := b.newBlock()
		b.loops = append(b.loops, loopCtx{label: label, breakTo: after})
		for _, c := range s.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok {
				continue
			}
			blk := b.newBlock()
			b.edge(head, blk, nil, false)
			b.cur = blk
			if cc.Comm != nil {
				b.append(cc.Comm)
			}
			b.stmtList(cc.Body, "")
			b.edge(b.cur, after, nil, false)
		}
		b.loops = b.loops[:len(b.loops)-1]
		b.cur = after

	case *ast.ExprStmt:
		b.append(s)
		if callTerminates(s.X) {
			b.cur = nil
		}

	default:
		// Assign, Decl, IncDec, Send, Defer, Go, Empty: straight-line.
		b.append(s)
	}
}

// lowerSwitch lowers switch/type-switch case clauses. For a tagless
// switch (cond == true), each case expression guards its body edge, so
// `switch { case err != nil: ... }` refines exactly like an if chain;
// tagged and type switches get plain edges. A case body ending in
// fallthrough flows into the next body.
func (b *cfgBuilder) lowerSwitch(clauses []ast.Stmt, tagless bool, label string) {
	head := b.cur
	after := b.newBlock()
	b.loops = append(b.loops, loopCtx{label: label, breakTo: after})
	bodies := make([]*cfgBlock, len(clauses))
	for i := range clauses {
		bodies[i] = b.newBlock()
	}
	sawDefault := false
	chain := head // for tagless switches: where the "no case yet" path is
	for i, c := range clauses {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			sawDefault = true
		}
		if tagless && len(cc.List) == 1 {
			// Single boolean guard: branch-sensitive edges, chained so the
			// next case sees "this guard was false".
			next := b.newBlock()
			b.edge(chain, bodies[i], cc.List[0], true)
			b.edge(chain, next, cc.List[0], false)
			chain = next
		} else {
			b.edge(chain, bodies[i], nil, false)
		}
	}
	if tagless {
		b.edge(chain, after, nil, false) // no case matched (or default: above)
	} else if !sawDefault {
		b.edge(head, after, nil, false)
	}
	for i, c := range clauses {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		b.cur = bodies[i]
		b.stmtList(cc.Body, "")
		// fallthrough flows into the next case body; otherwise join.
		if b.cur != nil && endsInFallthrough(cc.Body) && i+1 < len(bodies) {
			b.edge(b.cur, bodies[i+1], nil, false)
		} else {
			b.edge(b.cur, after, nil, false)
		}
	}
	b.loops = b.loops[:len(b.loops)-1]
	b.cur = after
}

func endsInFallthrough(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	br, ok := body[len(body)-1].(*ast.BranchStmt)
	return ok && br.Tok.String() == "fallthrough"
}

// callTerminates reports whether the expression is a call that never
// returns: panic, os.Exit, or the log.Fatal family. Syntactic on
// purpose — the loader type-checks os/log from source, but the names
// are unambiguous enough and a miss only widens the checked paths.
func callTerminates(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		pkg, ok := fun.X.(*ast.Ident)
		if !ok {
			return false
		}
		if pkg.Name == "os" && fun.Sel.Name == "Exit" {
			return true
		}
		if pkg.Name == "log" && (fun.Sel.Name == "Fatal" || fun.Sel.Name == "Fatalf" || fun.Sel.Name == "Fatalln" ||
			fun.Sel.Name == "Panic" || fun.Sel.Name == "Panicf" || fun.Sel.Name == "Panicln") {
			return true
		}
	}
	return false
}

// cfgOf returns the memoized CFG of a declared function.
func (u *Unit) cfgOf(fd *ast.FuncDecl) *funcCFG {
	if u.cfgMemo == nil {
		u.cfgMemo = map[*ast.FuncDecl]*funcCFG{}
	}
	if c, ok := u.cfgMemo[fd]; ok {
		return c
	}
	if fd.Body == nil {
		return nil // external (assembly/linkname) declaration
	}
	c := buildCFG(fd.Body)
	u.cfgMemo[fd] = c
	return c
}

// litCFGOf is cfgOf for function literals.
func (u *Unit) litCFGOf(lit *ast.FuncLit) *funcCFG {
	if u.litCfgMemo == nil {
		u.litCfgMemo = map[*ast.FuncLit]*funcCFG{}
	}
	if c, ok := u.litCfgMemo[lit]; ok {
		return c
	}
	c := buildCFG(lit.Body)
	u.litCfgMemo[lit] = c
	return c
}
