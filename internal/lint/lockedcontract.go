package lint

// analyzerLockedContract enforces the *Locked rename contract of the
// core package interprocedurally: a core function whose name ends in
// "Locked" (foldLogLocked, applyDiffTablesLocked, …) documents
// "the caller already holds the table locks". Using the lock-state
// fixpoint of lockstate.go, every static call site of such a function
// must sit in a provably locked context — inside a closure passed to
// txn.LockManager's WithWrite/WithRead (incl. *Span variants), or in a
// function all of whose known call sites are themselves locked. This
// replaces the old lexical suffix heuristic of lock-discipline: a
// helper that is only ever invoked from under a lock may now call
// *Locked functions without itself carrying the suffix, while a
// *Locked call reachable from any unlocked path is flagged.
var analyzerLockedContract = &Analyzer{
	Name: "locked-contract",
	Doc:  "core *Locked helpers reachable only from call sites where dataflow proves a lock is held",
	Run:  runLockedContract,
}

func runLockedContract(p *Pass) {
	res := p.Unit.lockAnalysis()
	for _, f := range res.contract {
		if f.pkg == p.Pkg {
			p.Reportf(f.pos, "%s", f.msg)
		}
	}
}
