package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// analyzerResourceLifecycle is a contract-driven Open/Close pairing
// check running on the dataflow layer (ssa.go/dataflow.go): every
// resource acquired through a constructor in the contract table must
// be released on every path out of the acquiring function — including
// early error returns, the paths the deferred-maintenance engine takes
// exactly when something already went wrong. The contract table below
// is the extension point the durable-storage arc (the WAL-backed paged
// storage ROADMAP parks) will grow: WAL segments and page files get a
// row each, and the whole analysis comes for free.
//
// One row is the tracing contract of internal/obs/trace: every
// *trace.Span a Start*/start* call returns, at each result index it
// appears, must be ended (End or EndExplicit), or the trace tree it
// belongs to never finishes and the whole transaction silently
// vanishes from the ring buffer. The trace package itself is exempt
// from that row: it implements spans, it is not their client.
//
// Discharge rules: a call to one of the contract's closers (direct,
// deferred, or inside a deferred literal) closes the resource; letting
// it escape — returned, aliased into another variable, stored in a
// composite or field, sent on a channel, or captured by a non-deferred
// closure — transfers the obligation to the new owner. Passing the
// resource as a plain call argument does NOT discharge it: io.Copy,
// bufio.NewWriter, and pprof.StartCPUProfile all borrow the handle,
// and the caller still owns the close (this is exactly the shape of
// the leak class this analyzer exists for). A constructor that also
// returns an error owes nothing on paths where that error is non-nil —
// the branch-sensitive edges of the CFG carve those paths out. A
// constructor result discarded by an expression statement or assigned
// to _ is a leak on the spot: nothing can close it. Return reports are
// must-miss: a resource is flagged only when no path into the return
// has closed it, so merge-point ambiguity never produces noise.
var analyzerResourceLifecycle = &Analyzer{
	Name: "resource-lifecycle",
	Doc:  "contract-paired resources (files, tickers, gzip streams, trace spans) must be closed on every path",
	Run:  runResourceLifecycle,
}

// Resource lattice bits.
const (
	rOpen    fact = 1 << iota // acquired, obligation pending
	rClosed                   // closer called on some path into here
	rEscaped                  // ownership transferred out of this scope
)

// resourceContract is one Open/Close pairing: the resource is each
// *pkg.typ result of a constructor, and any of closers releases it.
// Constructors are the names in ctors declared in pkg, or, with
// anyPkg, every function whose name starts with one of ctors.
type resourceContract struct {
	pkg, typ string
	ctors    []string
	anyPkg   bool
	closers  []string
	kind     string
}

// resourceContracts is the pairing table, less the span row.
var resourceContracts = []resourceContract{
	{pkg: "os", typ: "File", ctors: []string{"Create", "Open", "OpenFile"}, closers: []string{"Close"}, kind: "file"},
	{pkg: "time", typ: "Ticker", ctors: []string{"NewTicker"}, closers: []string{"Stop"}, kind: "ticker"},
	{pkg: "time", typ: "Timer", ctors: []string{"NewTimer"}, closers: []string{"Stop"}, kind: "timer"},
	{pkg: "compress/gzip", typ: "Reader", ctors: []string{"NewReader"}, closers: []string{"Close"}, kind: "gzip reader"},
	{pkg: "compress/gzip", typ: "Writer", ctors: []string{"NewWriter"}, closers: []string{"Close"}, kind: "gzip writer"},
}

func runResourceLifecycle(p *Pass) {
	contracts := resourceContracts
	if p.Pkg.Path != p.Cfg.TracePkg {
		contracts = append(contracts[:len(contracts):len(contracts)], resourceContract{
			pkg: p.Cfg.TracePkg, typ: "Span", ctors: []string{"Start", "start"}, anyPkg: true,
			closers: []string{"End", "EndExplicit"}, kind: "span",
		})
	}
	eachScope(p, func(body *ast.BlockStmt, cfg *funcCFG) {
		checkResourceScope(p, contracts, cfg)
	})
}

// resOpen is one tracked acquisition in the current scope.
type resOpen struct {
	obj  types.Object
	name string
	c    *resourceContract
	pos  token.Pos
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
			if es, ok := n.(*ast.ExprStmt); ok {
				if call, ok := ast.Unparen(es.X).(*ast.CallExpr); ok {
					if c, idx, _ := matchContract(p, contracts, call); len(idx) > 0 {
						p.Reportf(call.Pos(), "%s returned by %s is discarded; nothing can call %s on it",
							c.kind, calleeName(p.Pkg.Info, call), c.closers[0])
					}
				}
				continue
			}
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Rhs) != 1 {
				continue
			}
			call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
			if !ok {
				continue
			}
			c, idx, errIdx := matchContract(p, contracts, call)
			for _, i := range idx {
				if i >= len(as.Lhs) {
					continue
				}
				if id, ok := as.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
					p.Reportf(id.Pos(), "%s returned by %s is assigned to _; nothing can call %s on it",
						c.kind, calleeName(p.Pkg.Info, call), c.closers[0])
					continue
				}
				resObj := localObj(p.Pkg.Info, as.Lhs[i])
				if resObj == nil {
					continue
				}
				ro := &resOpen{obj: resObj, name: identName(as.Lhs[i]), c: c, pos: call.Pos()}
				rf.binds[n] = append(rf.binds[n], ro)
				rf.opens[resObj] = ro
				if errIdx >= 0 && errIdx < len(as.Lhs) {
					if errObj := localObj(p.Pkg.Info, as.Lhs[errIdx]); errObj != nil {
						rf.guards[errObj] = append(rf.guards[errObj], resObj)
					}
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
				ro.c.kind, ro.name, p.Pkg.Fset.Position(ro.pos).Line, ro.name, ro.c.closers[0])
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
				if ro := rf.opens[obj]; ro != nil && slices.Contains(ro.c.closers, sel.Sel.Name) {
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

// refine kills the obligation along edges where the resource is known
// nil (a sampled-out span: `if sp == nil { return }`), or where a
// constructor's paired error is known non-nil: os.Create and friends
// return an invalid handle exactly when they return an error. Either
// way there is nothing to close on that branch.
func (rf *resourceFlow) refine(cond ast.Expr, truth bool, facts flowFacts) {
	obj, isNil, ok := nilCompare(rf.p.Pkg.Info, cond)
	if !ok {
		return
	}
	if truth == isNil { // obj is nil on this edge
		delete(facts, obj)
		return
	}
	for _, res := range rf.guards[obj] {
		delete(facts, res)
	}
}

// matchContract resolves call's callee against the contract table. It
// returns the matching row, the result indices that carry its
// resource, and the index of a trailing error result (-1 for none).
func matchContract(p *Pass, contracts []resourceContract, call *ast.CallExpr) (*resourceContract, []int, int) {
	f := CalleeOf(p.Pkg.Info, call)
	if f == nil || f.Pkg() == nil {
		return nil, nil, -1
	}
	res := f.Type().(*types.Signature).Results()
	for i := range contracts {
		c := &contracts[i]
		if !c.constructs(f) {
			continue
		}
		var idx []int
		for j := 0; j < res.Len(); j++ {
			if isPtrToNamed(res.At(j).Type(), c.pkg, c.typ) {
				idx = append(idx, j)
			}
		}
		if len(idx) == 0 {
			continue
		}
		errIdx := res.Len() - 1
		if !types.Identical(res.At(errIdx).Type(), errType) {
			errIdx = -1
		}
		return c, idx, errIdx
	}
	return nil, nil, -1
}

// constructs reports whether f is one of c's constructors.
func (c *resourceContract) constructs(f *types.Func) bool {
	for _, name := range c.ctors {
		if c.anyPkg && strings.HasPrefix(f.Name(), name) || !c.anyPkg && f.Name() == name && f.Pkg().Path() == c.pkg {
			return true
		}
	}
	return false
}

func identName(e ast.Expr) string {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		return id.Name
	}
	return "resource"
}

// calleeName returns the bare name of a call's callee (function or
// method), or "".
func calleeName(info *types.Info, call *ast.CallExpr) string {
	if f := CalleeOf(info, call); f != nil {
		return f.Name()
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return sel.Sel.Name
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		return id.Name
	}
	return ""
}
