package algebra

import (
	"fmt"
	"strings"

	"dvm/internal/schema"
)

// Predicate is a quantifier-free predicate over a single tuple, the p of
// σ_p in the paper's grammar.
type Predicate interface {
	// Bind resolves attribute names against sch, returning an evaluator.
	Bind(sch *schema.Schema) (func(schema.Tuple) bool, error)
	String() string
}

// CmpOp enumerates comparison operators.
type CmpOp uint8

// Comparison operators.
const (
	EQ CmpOp = iota
	NE
	LT
	LE
	GT
	GE
)

func (op CmpOp) String() string {
	switch op {
	case EQ:
		return "="
	case NE:
		return "!="
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	}
	return "?"
}

// holds reports whether a three-way comparison result c (negative, zero
// or positive, as schema.Value.Compare returns) satisfies op.
func (op CmpOp) holds(c int) bool {
	switch op {
	case EQ:
		return c == 0
	case NE:
		return c != 0
	case LT:
		return c < 0
	case LE:
		return c <= 0
	case GT:
		return c > 0
	case GE:
		return c >= 0
	}
	return false
}

// flip returns the operator op' for which C op A holds exactly when
// A op' C does.
func (op CmpOp) flip() CmpOp {
	switch op {
	case LT:
		return GT
	case LE:
		return GE
	case GT:
		return LT
	case GE:
		return LE
	}
	return op
}

// Cmp compares two scalars. NULL compares using the total order of
// schema.Value (NULL sorts first), keeping predicate logic two-valued as
// the paper assumes.
type Cmp struct {
	Op   CmpOp
	L, R Scalar
}

// Eq builds L = R.
func Eq(l, r Scalar) Cmp { return Cmp{Op: EQ, L: l, R: r} }

// Neq builds L != R.
func Neq(l, r Scalar) Cmp { return Cmp{Op: NE, L: l, R: r} }

// Lt builds L < R.
func Lt(l, r Scalar) Cmp { return Cmp{Op: LT, L: l, R: r} }

// Gt builds L > R.
func Gt(l, r Scalar) Cmp { return Cmp{Op: GT, L: l, R: r} }

// operand is one side of a bound comparison: a column position (an
// Attr), a value (a Const), or any other scalar's bound evaluator.
type operand struct {
	pos  int // the column's, or -1
	val  schema.Value
	eval func(schema.Tuple) schema.Value
}

func bindOperand(s Scalar, sch *schema.Schema) (operand, error) {
	switch x := s.(type) {
	case Attr:
		pos, err := sch.Lookup(x.Name)
		return operand{pos: pos}, err
	case Const:
		return operand{pos: -1, val: x.Value}, nil
	}
	f, _, err := s.bind(sch)
	return operand{pos: -1, eval: f}, err
}

func (o operand) at(t schema.Tuple) schema.Value {
	if o.pos >= 0 {
		return t[o.pos]
	}
	if o.eval != nil {
		return o.eval(t)
	}
	return o.val
}

// isConst reports whether o is a Const's value.
func (o operand) isConst() bool { return o.pos < 0 && o.eval == nil }

// bound is a comparison with both operands resolved. When typ is not
// TNull, l is a column and r a constant of type typ (INT or STRING),
// and the comparison runs as their typed kernel.
type bound struct {
	typ  schema.Type
	op   CmpOp
	l, r operand
}

// bindCmp resolves both sides of c. A column against an INT or STRING
// constant gets a kernel, the column on the left: C op A is flipped to
// A op' C, which holds of the same values because Compare is
// antisymmetric. A constant of another type keeps Compare.
func bindCmp(c Cmp, sch *schema.Schema) (bound, error) {
	l, err := bindOperand(c.L, sch)
	if err != nil {
		return bound{}, err
	}
	r, err := bindOperand(c.R, sch)
	if err != nil {
		return bound{}, err
	}
	switch {
	case l.pos >= 0 && r.isConst() && hasKernel(r.val):
		return bound{typ: r.val.Type(), op: c.Op, l: l, r: r}, nil
	case r.pos >= 0 && l.isConst() && hasKernel(l.val):
		return bound{typ: l.val.Type(), op: c.Op.flip(), l: r, r: l}, nil
	}
	return bound{op: c.Op, l: l, r: r}, nil
}

// hasKernel reports whether a constant c has a typed kernel: INT and
// STRING, the types the workloads' selections compare against.
func hasKernel(c schema.Value) bool { return c.Type() == schema.TInt || c.Type() == schema.TString }

// compare is a comparison without a kernel: op over Value.Compare.
func (b *bound) compare(t schema.Tuple) bool { return b.op.holds(b.l.at(t).Compare(b.r.at(t))) }

// kernel returns b's typed kernel; b.typ must not be TNull.
func (b *bound) kernel() kernel { return kernel{typ: b.typ, op: b.op, pos: b.l.pos, c: b.r.val} }

// kernel is a column compared with a constant of type typ.
type kernel struct {
	typ schema.Type
	op  CmpOp
	pos int
	c   schema.Value
}

// holds reports op.holds(t[pos].Compare(c)). A value of the constant's
// type is compared by payload: INT as int64, STRING by bytes. Any other
// value — NULL, a FLOAT against an INT constant — goes through Compare
// itself, so every answer is Compare's. A value receiver of four words
// travels in registers.
func (k kernel) holds(t schema.Tuple) bool {
	v := t[k.pos]
	switch k.typ {
	case schema.TInt:
		if c, ok := intCompare(v, k.c); ok {
			return k.op.holds(c)
		}
	case schema.TString:
		if x, ok := v.AsStringOK(); ok {
			c, _ := k.c.AsStringOK()
			return k.op.holds(strings.Compare(x, c))
		}
	}
	return k.op.holds(v.Compare(k.c))
}

// intCompare is the INT kernel's compare: v.Compare(c) for an INT
// constant c, with ok, when v is an INT; ok is false for any other v. It
// inlines into kernel.holds and into a conjunction's loop.
func intCompare(v, c schema.Value) (int, bool) {
	x, ok := v.AsIntOK()
	k, _ := c.AsIntOK()
	if x < k {
		return -1, ok
	}
	if x > k {
		return 1, ok
	}
	return 0, ok
}

// Bind implements Predicate. It resolves both operands here and returns
// one evaluator, the predicate kernel every σ, join side conjunct and
// SQL WHERE runs through: no closure per attribute or constant, and a
// column against a constant is its typed kernel.
func (c Cmp) Bind(sch *schema.Schema) (func(schema.Tuple) bool, error) {
	b, err := bindCmp(c, sch)
	if err != nil {
		return nil, err
	}
	if b.typ != schema.TNull {
		return b.kernel().holds, nil
	}
	op, l, r := b.op, b.l, b.r
	return func(t schema.Tuple) bool { return op.holds(l.at(t).Compare(r.at(t))) }, nil
}

func (c Cmp) String() string {
	return fmt.Sprintf("%s %s %s", c.L, c.Op, c.R)
}

// And is an n-ary conjunction.
type And struct{ Preds []Predicate }

// AndOf conjoins predicates; AndOf() is TRUE.
func AndOf(ps ...Predicate) And { return And{Preds: ps} }

// Bind implements Predicate. A conjunction binds to one closure over its
// conjuncts in order, nested Ands flattened into it: a comparison
// resolved as Cmp.Bind resolves it, any other predicate as its own
// closure. A conjunction of comparisons calls no closure per conjunct:
// the loop runs a typed kernel straight from the conjunct's words.
func (a And) Bind(sch *schema.Schema) (func(schema.Tuple) bool, error) {
	cs, err := a.bindInto(make([]conjunct, 0, a.width()), sch)
	if err != nil {
		return nil, err
	}
	return func(t schema.Tuple) bool {
		for i := range cs {
			c := &cs[i]
			if c.cmp.typ == schema.TInt {
				// kernel.holds' INT case without the call: over a scan
				// the call costs about as much as the compare.
				if r, ok := intCompare(t[c.cmp.l.pos], c.cmp.r.val); ok {
					if !c.cmp.op.holds(r) {
						return false
					}
					continue
				}
			}
			if c.cmp.typ != schema.TNull {
				if !c.cmp.kernel().holds(t) {
					return false
				}
			} else if !c.holds(t) {
				return false
			}
		}
		return true
	}, nil
}

// conjunct is one conjunct of a bound And: a comparison, or, when f is
// set, the closure of any other predicate.
type conjunct struct {
	cmp bound
	f   func(schema.Tuple) bool
}

// holds evaluates a conjunct that is not a typed kernel.
func (c *conjunct) holds(t schema.Tuple) bool {
	if c.f != nil {
		return c.f(t)
	}
	return c.cmp.compare(t)
}

// width counts a's conjuncts, through nested Ands.
func (a And) width() int {
	n := 0
	for _, p := range a.Preds {
		if q, ok := p.(And); ok {
			n += q.width()
		} else {
			n++
		}
	}
	return n
}

// bindInto appends a's conjuncts, through nested Ands, to cs in order,
// each bound over sch.
func (a And) bindInto(cs []conjunct, sch *schema.Schema) ([]conjunct, error) {
	for _, p := range a.Preds {
		var (
			c   conjunct
			err error
		)
		switch q := p.(type) {
		case And:
			if cs, err = q.bindInto(cs, sch); err != nil {
				return nil, err
			}
			continue
		case Cmp:
			c.cmp, err = bindCmp(q, sch)
		default:
			c.f, err = p.Bind(sch)
		}
		if err != nil {
			return nil, err
		}
		cs = append(cs, c)
	}
	return cs, nil
}

func (a And) String() string {
	if len(a.Preds) == 0 {
		return "TRUE"
	}
	parts := make([]string, len(a.Preds))
	for i, p := range a.Preds {
		parts[i] = p.String()
	}
	return "(" + strings.Join(parts, " AND ") + ")"
}

// Or is an n-ary disjunction.
type Or struct{ Preds []Predicate }

// OrOf disjoins predicates; OrOf() is FALSE.
func OrOf(ps ...Predicate) Or { return Or{Preds: ps} }

// Bind implements Predicate.
func (o Or) Bind(sch *schema.Schema) (func(schema.Tuple) bool, error) {
	fs := make([]func(schema.Tuple) bool, len(o.Preds))
	for i, p := range o.Preds {
		f, err := p.Bind(sch)
		if err != nil {
			return nil, err
		}
		fs[i] = f
	}
	return func(t schema.Tuple) bool {
		for _, f := range fs {
			if f(t) {
				return true
			}
		}
		return false
	}, nil
}

func (o Or) String() string {
	if len(o.Preds) == 0 {
		return "FALSE"
	}
	parts := make([]string, len(o.Preds))
	for i, p := range o.Preds {
		parts[i] = p.String()
	}
	return "(" + strings.Join(parts, " OR ") + ")"
}

// Not negates a predicate.
type Not struct{ Pred Predicate }

// NotOf negates p.
func NotOf(p Predicate) Not { return Not{Pred: p} }

// Bind implements Predicate.
func (n Not) Bind(sch *schema.Schema) (func(schema.Tuple) bool, error) {
	f, err := n.Pred.Bind(sch)
	if err != nil {
		return nil, err
	}
	return func(t schema.Tuple) bool { return !f(t) }, nil
}

func (n Not) String() string { return "NOT " + n.Pred.String() }

// BoolLit is the TRUE/FALSE predicate.
type BoolLit struct{ Value bool }

// True and False are the constant predicates.
var (
	True  = BoolLit{Value: true}
	False = BoolLit{Value: false}
)

// Bind implements Predicate.
func (b BoolLit) Bind(*schema.Schema) (func(schema.Tuple) bool, error) {
	v := b.Value
	return func(schema.Tuple) bool { return v }, nil
}

func (b BoolLit) String() string {
	if b.Value {
		return "TRUE"
	}
	return "FALSE"
}

// equiPairs extracts attribute-equality conjuncts attr=attr from p.
// Used by the evaluator to plan hash joins; returns nil when p is not a
// pure conjunction containing such pairs.
func equiPairs(p Predicate) (pairs [][2]string, rest []Predicate) {
	switch q := p.(type) {
	case Cmp:
		if q.Op == EQ {
			if l, ok := q.L.(Attr); ok {
				if r, ok := q.R.(Attr); ok {
					return [][2]string{{l.Name, r.Name}}, nil
				}
			}
		}
		return nil, []Predicate{p}
	case And:
		for _, sub := range q.Preds {
			ps, rs := equiPairs(sub)
			pairs = append(pairs, ps...)
			rest = append(rest, rs...)
		}
		return pairs, rest
	case BoolLit:
		if q.Value {
			return nil, nil
		}
		return nil, []Predicate{p}
	default:
		return nil, []Predicate{p}
	}
}
