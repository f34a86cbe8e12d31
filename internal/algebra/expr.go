package algebra

import (
	"fmt"

	"dvm/internal/bag"
	"dvm/internal/schema"
)

// Expr is a bag-algebra query. Expressions are immutable after
// construction; every node carries its statically-checked output schema.
//
// The node kinds correspond exactly to the paper's BA grammar:
// ∅ and {x} (Literal), base table names (Base), σ_p (Select), Π_A
// (Project), ε (DupElim), ⊎ (UnionAll), ∸ (Monus), × (Product). The
// derived operators min, max, EXCEPT, and join are provided as
// constructors that expand into these primitives.
type Expr interface {
	// Schema returns the output schema.
	Schema() *schema.Schema
	String() string
}

// --- Literal (covers ∅ and {x}) ---

// Literal is a constant bag with a fixed schema; Empty(sch) is the ∅ of
// the grammar and Singleton the {x}.
type Literal struct {
	sch *schema.Schema
	Bag *bag.Bag
}

// Empty builds the ∅ expression with the given schema.
func Empty(sch *schema.Schema) *Literal { return &Literal{sch: sch, Bag: bag.New()} }

// Singleton builds {x}.
func Singleton(sch *schema.Schema, x schema.Tuple) (*Literal, error) {
	if err := sch.Validate(x); err != nil {
		return nil, err
	}
	return &Literal{sch: sch, Bag: bag.Of(x)}, nil
}

// NewLiteral wraps a constant bag. The caller warrants every tuple
// conforms to sch.
func NewLiteral(sch *schema.Schema, b *bag.Bag) *Literal { return &Literal{sch: sch, Bag: b} }

// Schema implements Expr.
func (l *Literal) Schema() *schema.Schema { return l.sch }

func (l *Literal) String() string {
	if l.Bag.Empty() {
		return "∅"
	}
	return l.Bag.String()
}

// --- Base table reference ---

// Base references a named table; the evaluation state supplies its bag.
type Base struct {
	Name string
	sch  *schema.Schema
	// delta marks one of Figure 2's change tables (a transaction's
	// ∇R/△R or a log's ▼R/▲R): it is small and short-lived, so a join
	// reads it as it is and never gives it an index of its own.
	delta bool
}

// NewBase builds a base-table reference.
func NewBase(name string, sch *schema.Schema) *Base { return &Base{Name: name, sch: sch} }

// NewDelta builds a reference to a change table, one that holds a
// table's deletions or insertions rather than its contents.
func NewDelta(name string, sch *schema.Schema) *Base {
	return &Base{Name: name, sch: sch, delta: true}
}

// Schema implements Expr.
func (b *Base) Schema() *schema.Schema { return b.sch }

func (b *Base) String() string { return b.Name }

// --- Select σ_p ---

// Select is σ_p(Child).
type Select struct {
	Pred  Predicate
	Child Expr
	bound func(schema.Tuple) bool
}

// NewSelect builds σ_p(child), binding p against child's schema.
func NewSelect(p Predicate, child Expr) (*Select, error) {
	f, err := p.Bind(child.Schema())
	if err != nil {
		return nil, fmt.Errorf("algebra: select: %w", err)
	}
	return &Select{Pred: p, Child: child, bound: f}, nil
}

// Schema implements Expr.
func (s *Select) Schema() *schema.Schema { return s.Child.Schema() }

func (s *Select) String() string { return fmt.Sprintf("σ[%s](%s)", s.Pred, s.Child) }

// --- Project Π_A ---

// Project is Π_A(Child): keep the named attributes, optionally renaming
// them, preserving duplicates (bag semantics).
type Project struct {
	Cols      []string // attribute names in the child schema
	OutNames  []string // output names, same length (defaults to Cols)
	Child     Expr
	positions []int
	sch       *schema.Schema
	// rename marks a pure renaming ρ: every child column, in order. Its
	// value IS the child's value (tuples carry no names), so both
	// evaluators hand the child's bag through, and the rewrites treat
	// ρ(R) as the table R.
	rename bool
}

// NewProject builds Π_cols(child). outNames may be nil to keep the
// source names (with any "t." qualifier stripped).
func NewProject(cols []string, outNames []string, child Expr) (*Project, error) {
	in := child.Schema()
	positions := make([]int, len(cols))
	outCols := make([]schema.Column, len(cols))
	for i, c := range cols {
		p, err := in.Lookup(c)
		if err != nil {
			return nil, fmt.Errorf("algebra: project: %w", err)
		}
		positions[i] = p
		name := c
		if outNames != nil {
			name = outNames[i]
		}
		outCols[i] = schema.Column{Name: name, Type: in.Column(p).Type}
	}
	names := outNames
	if names == nil {
		names = append([]string(nil), cols...)
	}
	return &Project{
		Cols:      append([]string(nil), cols...),
		OutNames:  names,
		Child:     child,
		positions: positions,
		sch:       schema.NewSchema(outCols...),
		rename:    isIdentity(positions, in.Len()),
	}, nil
}

// isIdentity reports whether positions is 0..n-1.
func isIdentity(positions []int, n int) bool {
	if len(positions) != n {
		return false
	}
	for i, p := range positions {
		if p != i {
			return false
		}
	}
	return true
}

// under returns e below any pure renamings.
func under(e Expr) Expr {
	for {
		p, ok := e.(*Project)
		if !ok || !p.rename {
			return e
		}
		e = p.Child
	}
}

// isBase reports whether e is a base table, possibly renamed.
func isBase(e Expr) bool {
	_, ok := under(e).(*Base)
	return ok
}

// newRename builds the pure renaming of child to sch's column names
// (sch must be union-compatible with child's schema). It never looks a
// name up, so duplicate names in child's schema do no harm.
func newRename(child Expr, sch *schema.Schema) *Project {
	in := child.Schema()
	n := in.Len()
	cols, outs, positions := make([]string, n), make([]string, n), make([]int, n)
	for i := range positions {
		cols[i], outs[i], positions[i] = in.Column(i).Name, sch.Column(i).Name, i
	}
	return &Project{Cols: cols, OutNames: outs, Child: child, positions: positions, sch: sch, rename: true}
}

// Schema implements Expr.
func (p *Project) Schema() *schema.Schema { return p.sch }

func (p *Project) String() string {
	cols := ""
	for i, c := range p.Cols {
		if i > 0 {
			cols += ","
		}
		cols += c
	}
	return fmt.Sprintf("Π[%s](%s)", cols, p.Child)
}

// --- DupElim ε ---

// DupElim is ε(Child): duplicate elimination.
type DupElim struct{ Child Expr }

// NewDupElim builds ε(child).
func NewDupElim(child Expr) *DupElim { return &DupElim{Child: child} }

// Schema implements Expr.
func (d *DupElim) Schema() *schema.Schema { return d.Child.Schema() }

func (d *DupElim) String() string { return fmt.Sprintf("ε(%s)", d.Child) }

// --- UnionAll ⊎ ---

// UnionAll is L ⊎ R: additive union.
type UnionAll struct{ L, R Expr }

// NewUnionAll builds l ⊎ r; schemas must be union-compatible. The left
// schema names the result.
func NewUnionAll(l, r Expr) (*UnionAll, error) {
	if !l.Schema().Compatible(r.Schema()) {
		return nil, fmt.Errorf("algebra: ⊎: incompatible schemas %s and %s", l.Schema(), r.Schema())
	}
	return &UnionAll{L: l, R: r}, nil
}

// Schema implements Expr.
func (u *UnionAll) Schema() *schema.Schema { return u.L.Schema() }

func (u *UnionAll) String() string { return fmt.Sprintf("(%s ⊎ %s)", u.L, u.R) }

// --- Monus ∸ ---

// Monus is L ∸ R: per-tuple multiplicity max(0, n_L − n_R).
type Monus struct{ L, R Expr }

// NewMonus builds l ∸ r; schemas must be union-compatible.
func NewMonus(l, r Expr) (*Monus, error) {
	if !l.Schema().Compatible(r.Schema()) {
		return nil, fmt.Errorf("algebra: ∸: incompatible schemas %s and %s", l.Schema(), r.Schema())
	}
	return &Monus{L: l, R: r}, nil
}

// Schema implements Expr.
func (m *Monus) Schema() *schema.Schema { return m.L.Schema() }

func (m *Monus) String() string { return fmt.Sprintf("(%s ∸ %s)", m.L, m.R) }

// --- Product × ---

// Product is L × R: tuple concatenation with multiplied multiplicities.
type Product struct {
	L, R Expr
	sch  *schema.Schema
}

// NewProduct builds l × r.
func NewProduct(l, r Expr) *Product {
	return &Product{L: l, R: r, sch: l.Schema().Concat(r.Schema())}
}

// Schema implements Expr.
func (p *Product) Schema() *schema.Schema { return p.sch }

func (p *Product) String() string { return fmt.Sprintf("(%s × %s)", p.L, p.R) }

// --- Derived constructors (expand to primitives) ---

// MinOf builds l min r ≝ l ∸ (l ∸ r) (minimal intersection).
func MinOf(l, r Expr) (Expr, error) {
	inner, err := NewMonus(l, r)
	if err != nil {
		return nil, err
	}
	return NewMonus(l, inner)
}

// MaxOf builds l max r ≝ l ⊎ (r ∸ l) (maximal union).
func MaxOf(l, r Expr) (Expr, error) {
	inner, err := NewMonus(r, l)
	if err != nil {
		return nil, err
	}
	return NewUnionAll(l, inner)
}

// ExceptOf builds SQL EXCEPT: remove from l every tuple occurring in r at
// all. Expanded per the paper (Section 2.1) as
// Π_L(σ_{L=R'}(l × (ε(l) ∸ r))), generalized to arbitrary arity.
func ExceptOf(l, r Expr) (Expr, error) {
	if !l.Schema().Compatible(r.Schema()) {
		return nil, fmt.Errorf("algebra: EXCEPT: incompatible schemas %s and %s", l.Schema(), r.Schema())
	}
	// Disambiguate column names across the product by qualifying sides.
	lq := qualify(l, "l")
	inner, err := NewMonus(NewDupElim(l), r)
	if err != nil {
		return nil, err
	}
	prod := NewProduct(lq, qualify(inner, "r"))
	k := l.Schema().Len()
	eqs := make([]Predicate, k)
	for i := 0; i < k; i++ {
		eqs[i] = Eq(A(prod.Schema().Column(i).Name), A(prod.Schema().Column(k+i).Name))
	}
	sel, err := NewSelect(AndOf(eqs...), prod)
	if err != nil {
		return nil, err
	}
	cols := make([]string, k)
	outs := make([]string, k)
	for i := 0; i < k; i++ {
		cols[i] = prod.Schema().Column(i).Name
		outs[i] = l.Schema().Column(i).Name
	}
	return NewProject(cols, outs, sel)
}

// Qualified wraps e in a renaming projection that prefixes every column
// with "alias." — the FROM-clause aliasing used by the SQL compiler.
func Qualified(e Expr, alias string) Expr { return qualify(e, alias) }

// qualify wraps e in a renaming projection prefixing columns with
// "alias.", so products of e with itself (or a sibling) have unambiguous
// names.
func qualify(e Expr, alias string) Expr { return newRename(e, e.Schema().Qualify(alias)) }

// JoinOn builds σ_p(l × r), the SPJ join form.
func JoinOn(l, r Expr, p Predicate) (Expr, error) {
	return NewSelect(p, NewProduct(l, r))
}

// BaseNames returns the distinct base-table names referenced by e, in
// first-appearance order.
func BaseNames(e Expr) []string {
	var names []string
	seen := map[string]bool{}
	var walk func(Expr)
	walk = func(x Expr) {
		switch n := x.(type) {
		case *Literal:
		case *Base:
			if !seen[n.Name] {
				seen[n.Name] = true
				names = append(names, n.Name)
			}
		case *Select:
			walk(n.Child)
		case *Project:
			walk(n.Child)
		case *DupElim:
			walk(n.Child)
		case *UnionAll:
			walk(n.L)
			walk(n.R)
		case *Monus:
			walk(n.L)
			walk(n.R)
		case *Product:
			walk(n.L)
			walk(n.R)
		default:
			panic(fmt.Sprintf("algebra: BaseNames: unknown node %T", x))
		}
	}
	walk(e)
	return names
}

// Substitute returns e with every Base node named in repl replaced by the
// corresponding expression. Replacement expressions must be
// union-compatible with the tables they replace. This is the paper's
// substitution η(Q) (Section 2.4).
func Substitute(e Expr, repl map[string]Expr) (Expr, error) {
	switch n := e.(type) {
	case *Literal:
		return n, nil
	case *Base:
		r, ok := repl[n.Name]
		if !ok {
			return n, nil
		}
		if !n.Schema().Compatible(r.Schema()) {
			return nil, fmt.Errorf("algebra: substitute %s: incompatible schema %s for %s", n.Name, r.Schema(), n.Schema())
		}
		return r, nil
	case *Select:
		c, err := Substitute(n.Child, repl)
		if err != nil {
			return nil, err
		}
		// Rebind against the (possibly renamed) child schema via the
		// original child's schema: substitution preserves schemas up to
		// compatibility, so bind against the new child.
		return NewSelect(n.Pred, c)
	case *Project:
		c, err := Substitute(n.Child, repl)
		if err != nil {
			return nil, err
		}
		return NewProject(n.Cols, n.OutNames, c)
	case *DupElim:
		c, err := Substitute(n.Child, repl)
		if err != nil {
			return nil, err
		}
		return NewDupElim(c), nil
	case *UnionAll:
		l, err := Substitute(n.L, repl)
		if err != nil {
			return nil, err
		}
		r, err := Substitute(n.R, repl)
		if err != nil {
			return nil, err
		}
		return NewUnionAll(l, r)
	case *Monus:
		l, err := Substitute(n.L, repl)
		if err != nil {
			return nil, err
		}
		r, err := Substitute(n.R, repl)
		if err != nil {
			return nil, err
		}
		return NewMonus(l, r)
	case *Product:
		l, err := Substitute(n.L, repl)
		if err != nil {
			return nil, err
		}
		r, err := Substitute(n.R, repl)
		if err != nil {
			return nil, err
		}
		return NewProduct(l, r), nil
	}
	return nil, fmt.Errorf("algebra: substitute: unknown node %T", e)
}
