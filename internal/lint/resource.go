package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// analyzerResourceLifecycle generalizes span-discipline into a
// contract-driven Open/Close pairing check running on the dataflow
// layer (ssa.go/dataflow.go): every resource acquired through a
// constructor in the contract table must be released on every path out
// of the acquiring function — including early error returns, the paths
// the deferred-maintenance engine takes exactly when something already
// went wrong. The contract table below is the extension point the
// durable-storage arc (the WAL-backed paged storage ROADMAP parks) will
// grow: WAL segments and page files get a row each, and the whole
// analysis comes for free.
//
// Discharge rules: a call to the contract's closer (direct, deferred,
// or inside a deferred literal) closes the resource; letting it escape
// — returned, aliased into another variable, stored in a composite or
// field, sent on a channel, or captured by a non-deferred closure —
// transfers the obligation to the new owner. Passing the resource as a
// plain call argument does NOT discharge it: io.Copy, bufio.NewWriter,
// and pprof.StartCPUProfile all borrow the handle, and the caller
// still owns the close (this is exactly the shape of the leak class
// this analyzer exists for). For error-paired constructors (os.Create
// and friends) the obligation only holds on paths where the paired
// error is nil — the branch-sensitive edges of the CFG carve those
// paths out. Reports are must-miss: a resource is flagged only when no
// path into the return has closed it, so merge-point ambiguity never
// produces noise.
var analyzerResourceLifecycle = &Analyzer{
	Name: "resource-lifecycle",
	Doc:  "contract-paired resources (files, tickers, pollers) must be closed on every path",
	Run:  runResourceLifecycle,
}

// Resource lattice bits.
const (
	rOpen    fact = 1 << iota // acquired, obligation pending
	rClosed                   // closer called on some path into here
	rEscaped                  // ownership transferred out of this scope
)

// resourceContract is one Open/Close pairing: the constructor package
// path and name, the method that releases the resource, whether the
// constructor pairs the resource with an error result (obligation
// begins only when that error is nil), and a human label for reports.
type resourceContract struct {
	pkg       string
	fn        string
	closer    string
	errPaired bool
	kind      string
}

// resourceContracts is the pairing table.
var resourceContracts = []resourceContract{
	{pkg: "os", fn: "Create", closer: "Close", errPaired: true, kind: "file"},
	{pkg: "os", fn: "Open", closer: "Close", errPaired: true, kind: "file"},
	{pkg: "os", fn: "OpenFile", closer: "Close", errPaired: true, kind: "file"},
	{pkg: "time", fn: "NewTicker", closer: "Stop", kind: "ticker"},
	{pkg: "time", fn: "NewTimer", closer: "Stop", kind: "timer"},
	{pkg: "compress/gzip", fn: "NewReader", closer: "Close", errPaired: true, kind: "gzip reader"},
	{pkg: "compress/gzip", fn: "NewWriter", closer: "Close", kind: "gzip writer"},
}

func runResourceLifecycle(p *Pass) {
	eachScope(p, func(body *ast.BlockStmt, cfg *funcCFG) {
		checkResourceScope(p, resourceContracts, cfg)
	})
}

// resOpen is one tracked acquisition in the current scope.
type resOpen struct {
	obj    types.Object
	name   string
	closer string
	kind   string
	pos    token.Pos
}

// resourceFlow is the flowClient for one scope.
type resourceFlow struct {
	p      *Pass
	binds  map[ast.Node][]*resOpen         // binding statement → acquisitions
	opens  map[types.Object]*resOpen       // resource object → acquisition
	guards map[types.Object][]types.Object // paired error object → resource objects
}

func checkResourceScope(p *Pass, contracts []resourceContract, cfg *funcCFG) {
	if cfg == nil {
		return
	}
	rf := &resourceFlow{
		p:      p,
		binds:  map[ast.Node][]*resOpen{},
		opens:  map[types.Object]*resOpen{},
		guards: map[types.Object][]types.Object{},
	}
	// Prepass: find acquisitions among the scope's own CFG nodes. Only
	// plain-ident bindings create obligations; a constructor result
	// stored straight into a field or index already belongs to the
	// structure it was stored in.
	for _, b := range cfg.blocks {
		for _, n := range b.nodes {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Rhs) != 1 {
				continue
			}
			call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
			if !ok {
				continue
			}
			c := matchContract(p, contracts, call)
			if c == nil || len(as.Lhs) == 0 {
				continue
			}
			resObj := localObj(p.Pkg.Info, as.Lhs[0])
			if resObj == nil {
				continue
			}
			ro := &resOpen{obj: resObj, name: identName(as.Lhs[0]), closer: c.closer, kind: c.kind, pos: call.Pos()}
			rf.binds[n] = append(rf.binds[n], ro)
			rf.opens[resObj] = ro
			if c.errPaired && len(as.Lhs) > 1 {
				if errObj := localObj(p.Pkg.Info, as.Lhs[1]); errObj != nil {
					rf.guards[errObj] = append(rf.guards[errObj], resObj)
				}
			}
		}
	}
	if len(rf.opens) == 0 {
		return
	}
	runForward(cfg, rf, func(n ast.Node, facts flowFacts) {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return
		}
		// The return's own effects count: `return f.Close()` closes,
		// `return f, nil` escapes — judge what is live AFTER them.
		eff := facts.clone()
		rf.transfer(n, eff)
		var leaked []*resOpen
		for obj, v := range eff {
			if v&rOpen != 0 && v&(rClosed|rEscaped) == 0 {
				if ro := rf.opens[obj]; ro != nil {
					leaked = append(leaked, ro)
				}
			}
		}
		sort.Slice(leaked, func(i, j int) bool { return leaked[i].pos < leaked[j].pos })
		for _, ro := range leaked {
			p.Reportf(ret.Pos(),
				"return leaves %s %s (opened at line %d) unclosed on this path; call %s.%s before returning or defer it",
				ro.kind, ro.name, p.Pkg.Fset.Position(ro.pos).Line, ro.name, ro.closer)
		}
	})
}

func (rf *resourceFlow) transfer(n ast.Node, facts flowFacts) {
	for _, ro := range rf.binds[n] {
		facts[ro.obj] = rOpen
	}
	// Scan the node for discharges. Closer calls count wherever they
	// appear (direct, in an if-init fold, in a return expression, under
	// defer, inside a deferred literal); other appearances classify as
	// escapes or stay neutral (call arguments: borrowed, not moved).
	info := rf.p.Pkg.Info
	var walk func(n ast.Node, inLit bool)
	walk = func(n ast.Node, inLit bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit:
				if ast.Node(m) == n {
					return true
				}
				// The literal body still discharges via closer calls
				// (deferred-cleanup closures); any other captured use of a
				// tracked resource escapes below, via the Ident case.
				walk(m.Body, true)
				return false
			case *ast.CallExpr:
				sel, ok := ast.Unparen(m.Fun).(*ast.SelectorExpr)
				if !ok {
					return true
				}
				obj := localObj(info, sel.X)
				if ro := rf.opens[obj]; ro != nil && sel.Sel.Name == ro.closer {
					if v, tracked := facts[obj]; tracked {
						facts[obj] = v | rClosed
					}
				}
			case *ast.Ident:
				if inLit {
					// Captured by a closure: the closure may outlive every
					// path of this scope, so ownership moves to it.
					if obj := info.Uses[m]; obj != nil && rf.opens[obj] != nil {
						if v, tracked := facts[obj]; tracked {
							facts[obj] = v | rEscaped
						}
					}
				}
			case *ast.ReturnStmt:
				rf.markDirect(m.Results, facts)
			case *ast.AssignStmt:
				if _, isBind := rf.binds[ast.Node(m)]; !isBind {
					rf.markDirect(m.Rhs, facts)
				}
			case *ast.CompositeLit:
				rf.markDirect(m.Elts, facts)
			case *ast.KeyValueExpr:
				rf.markDirect([]ast.Expr{m.Value}, facts)
			case *ast.SendStmt:
				rf.markDirect([]ast.Expr{m.Value}, facts)
			}
			return true
		})
	}
	walk(n, false)
}

// markDirect marks tracked resources appearing as direct elements of
// exprs (not merely mentioned in subexpressions) as escaped.
func (rf *resourceFlow) markDirect(exprs []ast.Expr, facts flowFacts) {
	for _, e := range exprs {
		obj := localObj(rf.p.Pkg.Info, e)
		if obj == nil || rf.opens[obj] == nil {
			continue
		}
		if v, tracked := facts[obj]; tracked {
			facts[obj] = v | rEscaped
		}
	}
}

// refine kills the obligation along edges where a constructor's paired
// error is known non-nil: os.Create and friends return an invalid
// handle exactly when they return an error, so there is nothing to
// close on that branch.
func (rf *resourceFlow) refine(cond ast.Expr, truth bool, facts flowFacts) {
	obj, isNil, ok := nilCompare(rf.p.Pkg.Info, cond)
	if !ok {
		return
	}
	resources := rf.guards[obj]
	if len(resources) == 0 {
		return
	}
	errNonNil := (truth && !isNil) || (!truth && isNil)
	if !errNonNil {
		return
	}
	for _, res := range resources {
		delete(facts, res)
	}
}

// matchContract resolves call's callee against the contract table.
func matchContract(p *Pass, contracts []resourceContract, call *ast.CallExpr) *resourceContract {
	f := CalleeOf(p.Pkg.Info, call)
	if f == nil || f.Pkg() == nil {
		return nil
	}
	for i := range contracts {
		c := &contracts[i]
		if f.Name() == c.fn && f.Pkg().Path() == c.pkg {
			return c
		}
	}
	return nil
}

func identName(e ast.Expr) string {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		return id.Name
	}
	return "resource"
}
