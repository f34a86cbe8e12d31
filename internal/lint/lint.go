package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one diagnostic: a position, the analyzer that produced
// it, and a message. Rendered as "file:line:col: [check] message".
// Warning findings are advisory: the CLI routes them to stderr and
// they do not affect the exit code or the JSON output.
type Finding struct {
	Pos     token.Position
	Check   string
	Message string
	Warning bool
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Check, f.Message)
}

// Config carries the repo-specific knowledge the analyzers need. The
// defaults describe this module; tests point the roles at fixture
// packages instead.
type Config struct {
	// CorePkg is the maintenance core: its Read lends the live MV, and
	// its accessors must not leak live tables.
	CorePkg string
	// BagPkg, TxnPkg, StoragePkg locate the types the analyzers key on.
	BagPkg     string
	TxnPkg     string
	StoragePkg string
	// OrderedPkgs are packages whose output ordering matters (they
	// build reports, snapshots, deltas, or SQL results); map iteration
	// feeding ordered sinks is flagged there.
	OrderedPkgs []string
	// DocPkgs are packages whose exported identifiers must all carry
	// doc comments (the documentation-gated API surface).
	DocPkgs []string
}

// DefaultConfig returns the production configuration for this module.
func DefaultConfig() Config {
	return Config{
		CorePkg:    "dvm/internal/core",
		BagPkg:     "dvm/internal/bag",
		TxnPkg:     "dvm/internal/txn",
		StoragePkg: "dvm/internal/storage",
		OrderedPkgs: []string{
			"dvm/internal/algebra",
			"dvm/internal/core",
			"dvm/internal/obs",
			"dvm/internal/sql",
			"dvm/internal/storage",
		},
		DocPkgs: []string{
			"dvm/internal/core",
			"dvm/internal/obs",
			"dvm/internal/obs/trace",
			"dvm/internal/txn",
		},
	}
}

// Analyzer is one named check.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Unit is the whole-program view one RunAnalyzers invocation shares
// across its per-package passes: every loaded package, plus lazily
// computed facts (the atomic-field facts).
// An analyzer that computes over the Unit does so once and reports,
// from each per-package pass, only the findings positioned in that
// pass's package.
type Unit struct {
	Pkgs []*Package
	Cfg  Config

	atomic *atomicFacts
}

// Pass is one analyzer's view of one package.
type Pass struct {
	Pkg      *Package
	Unit     *Unit
	Cfg      Config
	check    string
	findings *[]Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Pos:     p.Pkg.Fset.Position(pos),
		Check:   p.check,
		Message: fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if tv, ok := p.Pkg.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// CalleeOf resolves the function or method a call invokes, or nil.
func CalleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fn].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fn.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// isMethodOn reports whether f is a method whose receiver is T or *T
// for the named type pkgPath.typeName.
func isMethodOn(f *types.Func, pkgPath, typeName string) bool {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == typeName && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// isPtrToNamed reports whether t is *pkgPath.typeName.
func isPtrToNamed(t types.Type, pkgPath, typeName string) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := p.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == typeName && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// All returns the analyzer registry in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		analyzerSingleWriter,
		analyzerSharedStateEscape,
		analyzerAtomicDiscipline,
		analyzerMapIteration,
		analyzerDocComment,
	}
}

// Select returns the named analyzers (comma-separated; empty = all).
func Select(names string) ([]*Analyzer, error) {
	if strings.TrimSpace(names) == "" {
		return All(), nil
	}
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("lint: unknown check %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// suppression is one parsed //dvmlint:ignore comment.
type suppression struct {
	pos    token.Position
	checks map[string]bool
	reason string
	used   bool // matched at least one raw finding this run
}

const ignorePrefix = "//dvmlint:ignore"

// collectSuppressions parses //dvmlint:ignore comments per file. A
// suppression on line N silences matching findings on lines N and N+1
// (i.e. it may sit on the offending line or immediately above it).
// Syntax: //dvmlint:ignore check[,check...] reason text. A missing
// reason or an unknown check name is itself reported.
func collectSuppressions(pkg *Package, known map[string]bool, findings *[]Finding) map[string][]*suppression {
	out := map[string][]*suppression{}
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, ignorePrefix)
				pos := pkg.Fset.Position(c.Pos())
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					*findings = append(*findings, Finding{Pos: pos, Check: "dvmlint",
						Message: "suppression names no check; use //dvmlint:ignore check reason"})
					continue
				}
				checks := map[string]bool{}
				bad := false
				for _, n := range strings.Split(fields[0], ",") {
					if !known[n] {
						// A name no analyzer recognizes (a typo, or a check
						// since renamed) is a warning, not an error: the
						// suppression is inert, so it cannot hide a finding,
						// and erroring would break builds on every analyzer
						// rename.
						*findings = append(*findings, Finding{Pos: pos, Check: "dvmlint", Warning: true,
							Message: fmt.Sprintf("suppression names unknown check %q (ignored)", n)})
						bad = true
						continue
					}
					checks[n] = true
				}
				if len(fields) < 2 {
					*findings = append(*findings, Finding{Pos: pos, Check: "dvmlint",
						Message: "suppression requires a written reason after the check name"})
					continue // a reasonless suppression does not suppress
				}
				if bad && len(checks) == 0 {
					continue
				}
				out[pos.Filename] = append(out[pos.Filename], &suppression{
					pos:    pos,
					checks: checks,
					reason: strings.Join(fields[1:], " "),
				})
			}
		}
	}
	return out
}

// RunAnalyzers runs each analyzer over each package, applies
// suppressions, and returns the surviving findings sorted by position.
// A //dvmlint:ignore suppression that matches no finding is itself
// reported as stale, provided every check it names was part of this
// run (a partial -checks run cannot judge the others' suppressions).
// Analyzers run one after another; the first to need an
// interprocedural fact on Unit computes it and the rest reuse it.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer, cfg Config) []Finding {
	known := map[string]bool{}
	for _, a := range All() {
		known[a.Name] = true
	}
	selected := map[string]bool{}
	for _, a := range analyzers {
		selected[a.Name] = true
	}
	unit := &Unit{Pkgs: pkgs, Cfg: cfg}
	var findings []Finding
	sups := map[string][]*suppression{}
	for _, pkg := range pkgs {
		for file, list := range collectSuppressions(pkg, known, &findings) {
			sups[file] = append(sups[file], list...)
		}
	}
	var raw []Finding
	for _, a := range analyzers {
		for _, pkg := range pkgs {
			a.Run(&Pass{Pkg: pkg, Unit: unit, Cfg: cfg, check: a.Name, findings: &raw})
		}
	}
	for _, f := range raw {
		if !suppressed(f, sups) {
			findings = append(findings, f)
		}
	}
	for _, file := range sups {
		for _, s := range file {
			if s.used {
				continue
			}
			all := true
			var names []string
			for n := range s.checks {
				names = append(names, n)
				if !selected[n] {
					all = false
				}
			}
			if !all {
				continue
			}
			sort.Strings(names)
			findings = append(findings, Finding{Pos: s.pos, Check: "dvmlint",
				Message: fmt.Sprintf("suppression for %s matches no finding; stale suppressions must be removed", strings.Join(names, ","))})
		}
	}
	sort.SliceStable(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
	return findings
}

func suppressed(f Finding, sups map[string][]*suppression) bool {
	for _, s := range sups[f.Pos.Filename] {
		if !s.checks[f.Check] {
			continue
		}
		if s.pos.Line == f.Pos.Line || s.pos.Line == f.Pos.Line-1 {
			s.used = true
			return true
		}
	}
	return false
}
