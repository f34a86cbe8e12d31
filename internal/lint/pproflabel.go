package lint

import (
	"go/ast"
)

// analyzerPprofLabel keeps continuous profiling attributable: every
// maintenance entry point in the core package — recognized by its
// startEntrySpan call, the marker all Figure 3 transactions share —
// must also install the dvm_view/dvm_phase goroutine labels
// via obs.StartRegion (or the lower-level obs.SetPhaseLabels) before
// doing work. An entry point that starts a span but no labeled region
// produces CPU samples that cannot be attributed to a view or phase,
// which silently erodes the ≥90%-attributed property the profiling
// docs promise (docs/observability.md, "Profiling & attribution").
var analyzerPprofLabel = &Analyzer{
	Name: "pprof-label",
	Doc:  "maintenance entry points starting spans must install pprof labels (obs.StartRegion/SetPhaseLabels)",
	Run:  runPprofLabel,
}

func runPprofLabel(p *Pass) {
	if p.Pkg.Path != p.Cfg.CorePkg {
		return
	}
	info := p.Pkg.Info
	for _, file := range p.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			var entry *ast.CallExpr
			labeled := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				f := CalleeOf(info, call)
				if f == nil {
					return true
				}
				switch {
				case f.Name() == "startEntrySpan" && f.Pkg() != nil && f.Pkg().Path() == p.Cfg.CorePkg:
					if entry == nil {
						entry = call
					}
				case (f.Name() == "StartRegion" || f.Name() == "SetPhaseLabels") &&
					f.Pkg() != nil && f.Pkg().Path() == p.Cfg.ObsPkg:
					labeled = true
				}
				return true
			})
			if entry != nil && !labeled {
				p.Reportf(entry.Pos(),
					"%s starts a maintenance entry span without installing pprof labels; call obs.StartRegion (or obs.SetPhaseLabels) so CPU samples attribute to a view/phase",
					fd.Name.Name)
			}
		}
	}
}
