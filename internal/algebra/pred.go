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

// bound is a comparison with both operands resolved.
type bound struct {
	op   CmpOp
	l, r operand
}

func bindCmp(c Cmp, sch *schema.Schema) (bound, error) {
	l, err := bindOperand(c.L, sch)
	if err != nil {
		return bound{}, err
	}
	r, err := bindOperand(c.R, sch)
	return bound{op: c.Op, l: l, r: r}, err
}

func (b *bound) holds(t schema.Tuple) bool { return b.op.holds(b.l.at(t).Compare(b.r.at(t))) }

// Bind implements Predicate. It resolves both operands here and returns
// one evaluator, the predicate kernel every σ, join side conjunct and
// SQL WHERE runs through: no closure per attribute or constant.
func (c Cmp) Bind(sch *schema.Schema) (func(schema.Tuple) bool, error) {
	b, err := bindCmp(c, sch)
	if err != nil {
		return nil, err
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
// closure. A conjunction of comparisons calls no closure per conjunct.
func (a And) Bind(sch *schema.Schema) (func(schema.Tuple) bool, error) {
	cs, err := a.bindInto(make([]conjunct, 0, a.width()), sch)
	if err != nil {
		return nil, err
	}
	return func(t schema.Tuple) bool {
		for i := range cs {
			if !cs[i].holds(t) {
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

func (c *conjunct) holds(t schema.Tuple) bool {
	if c.f != nil {
		return c.f(t)
	}
	return c.cmp.holds(t)
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
