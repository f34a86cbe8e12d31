package lint

import "go/ast"

// analyzerSingleWriter keeps the engine what the paper assumes: one
// writer, whose only lock is the exclusive MV lock a refresh holds
// (Section 5), running each transaction atomically (Theorem 5). The
// engine starts no goroutine (the root TestEngineStartsNoGoroutine
// checks it at run time), so a go statement outside package main is a
// finding: the spawned call would run with none of its caller's locks,
// and nothing else in dvmlint models that. A command may still start
// one, for a server or a signal handler.
var analyzerSingleWriter = &Analyzer{
	Name: "single-writer",
	Doc:  "no go statement outside package main: the engine starts no goroutine",
	Run:  runSingleWriter,
}

func runSingleWriter(p *Pass) {
	if p.Pkg.Types.Name() == "main" {
		return
	}
	for _, file := range p.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				p.Reportf(g.Pos(), "go statement outside package main: the spawned call holds none of its caller's locks and the engine is a single writer; call it synchronously, or start it from a command")
			}
			return true
		})
	}
}
