package sql

import (
	"fmt"
	"strconv"
	"strings"

	"dvm/internal/algebra"
	"dvm/internal/schema"
)

// Parse parses one statement (an optional trailing semicolon is
// allowed).
func Parse(input string) (Stmt, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	st, err := p.statement()
	if err != nil {
		return nil, err
	}
	p.acceptSymbol(";")
	if !p.atEOF() {
		return nil, fmt.Errorf("sql: trailing input starting at %s", p.peek())
	}
	return st, nil
}

// ParseScript parses a semicolon-separated sequence of statements.
func ParseScript(input string) ([]Stmt, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var out []Stmt
	for !p.atEOF() {
		st, err := p.statement()
		if err != nil {
			return nil, err
		}
		out = append(out, st)
		if !p.acceptSymbol(";") && !p.atEOF() {
			return nil, fmt.Errorf("sql: expected ';' between statements, got %s", p.peek())
		}
	}
	return out, nil
}

type parser struct {
	toks []token
	i    int
}

func (p *parser) peek() token { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }
func (p *parser) atEOF() bool { return p.peek().kind == tokEOF }

func (p *parser) acceptKeyword(kw string) bool {
	if t := p.peek(); t.kind == tokKeyword && t.text == kw {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return fmt.Errorf("sql: expected %s, got %s", kw, p.peek())
	}
	return nil
}

func (p *parser) acceptSymbol(s string) bool {
	if p.peek().isSymbol(s) {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectSymbol(s string) error {
	if !p.acceptSymbol(s) {
		return fmt.Errorf("sql: expected %q, got %s", s, p.peek())
	}
	return nil
}

// ident parses a possibly qualified identifier (a or a.b).
func (p *parser) ident() (string, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return "", fmt.Errorf("sql: expected identifier, got %s", t)
	}
	p.i++
	name := t.text
	if p.acceptSymbol(".") {
		t2 := p.peek()
		if t2.kind != tokIdent {
			return "", fmt.Errorf("sql: expected identifier after '.', got %s", t2)
		}
		p.i++
		name += "." + t2.text
	}
	return name, nil
}

// bareIdent parses an unqualified identifier.
func (p *parser) bareIdent() (string, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return "", fmt.Errorf("sql: expected identifier, got %s", t)
	}
	p.i++
	return t.text, nil
}

func (p *parser) statement() (Stmt, error) {
	switch {
	case p.acceptKeyword("CREATE"):
		return p.create()
	case p.acceptKeyword("DROP"):
		return p.drop()
	case p.peek().kind == tokKeyword && p.peek().text == "SELECT":
		return p.selectStmt()
	case p.acceptKeyword("INSERT"):
		return p.insert()
	case p.acceptKeyword("DELETE"):
		return p.delete()
	case p.acceptKeyword("REFRESH"):
		name, err := p.maintTarget()
		if err != nil {
			return nil, err
		}
		return &MaintStmt{Op: "REFRESH", View: name}, nil
	case p.acceptKeyword("PROPAGATE"):
		name, err := p.maintTarget()
		if err != nil {
			return nil, err
		}
		return &MaintStmt{Op: "PROPAGATE", View: name}, nil
	case p.acceptKeyword("PARTIAL"):
		if err := p.expectKeyword("REFRESH"); err != nil {
			return nil, err
		}
		name, err := p.maintTarget()
		if err != nil {
			return nil, err
		}
		return &MaintStmt{Op: "PARTIAL", View: name}, nil
	case p.acceptKeyword("RECOMPUTE"):
		name, err := p.maintTarget()
		if err != nil {
			return nil, err
		}
		return &MaintStmt{Op: "RECOMPUTE", View: name}, nil
	case p.acceptKeyword("CHECK"):
		if err := p.expectKeyword("INVARIANT"); err != nil {
			return nil, err
		}
		name, err := p.bareIdent()
		if err != nil {
			return nil, err
		}
		return &MaintStmt{Op: "CHECK", View: name}, nil
	case p.acceptKeyword("EXPLAIN"):
		if p.acceptKeyword("VIEW") {
			name, err := p.bareIdent()
			if err != nil {
				return nil, err
			}
			return &ExplainStmt{View: name}, nil
		}
		q, err := p.selectStmt()
		if err != nil {
			return nil, err
		}
		return &ExplainStmt{Query: q}, nil
	case p.acceptKeyword("SHOW"):
		if p.acceptKeyword("TABLES") {
			return &ShowStmt{}, nil
		}
		if p.acceptKeyword("VIEWS") {
			return &ShowStmt{Views: true}, nil
		}
		return nil, fmt.Errorf("sql: expected TABLES or VIEWS after SHOW, got %s", p.peek())
	}
	return nil, fmt.Errorf("sql: unexpected %s at start of statement", p.peek())
}

// maintTarget parses [VIEW] name.
func (p *parser) maintTarget() (string, error) {
	p.acceptKeyword("VIEW")
	return p.bareIdent()
}

func (p *parser) create() (Stmt, error) {
	switch {
	case p.acceptKeyword("TABLE"):
		return p.createTable()
	case p.acceptKeyword("MATERIALIZED"):
		if err := p.expectKeyword("VIEW"); err != nil {
			return nil, err
		}
		return p.createView()
	}
	return nil, fmt.Errorf("sql: expected TABLE or MATERIALIZED VIEW after CREATE, got %s", p.peek())
}

func (p *parser) createTable() (Stmt, error) {
	name, err := p.bareIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	var cols []schema.Column
	for {
		cn, err := p.bareIdent()
		if err != nil {
			return nil, err
		}
		tt := p.peek()
		if tt.kind != tokKeyword {
			return nil, fmt.Errorf("sql: expected column type, got %s", tt)
		}
		var ct schema.Type
		switch tt.text {
		case "INT":
			ct = schema.TInt
		case "FLOAT":
			ct = schema.TFloat
		case "STRING":
			ct = schema.TString
		case "BOOL":
			ct = schema.TBool
		default:
			return nil, fmt.Errorf("sql: unknown column type %s", tt)
		}
		p.i++
		cols = append(cols, schema.Col(cn, ct))
		if p.acceptSymbol(",") {
			continue
		}
		break
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return &CreateTable{Name: name, Cols: cols}, nil
}

func (p *parser) createView() (Stmt, error) {
	name, err := p.bareIdent()
	if err != nil {
		return nil, err
	}
	mode := "COMBINED"
	strong := false
	if p.acceptKeyword("REFRESH") {
		switch {
		case p.acceptKeyword("IMMEDIATE"):
			mode = "IMMEDIATE"
		case p.acceptKeyword("DEFERRED"):
			switch {
			case p.acceptKeyword("LOGGED"):
				mode = "LOGGED"
			case p.acceptKeyword("DIFFERENTIAL"):
				mode = "DIFFERENTIAL"
			case p.acceptKeyword("COMBINED"):
				mode = "COMBINED"
			default:
				mode = "COMBINED"
			}
			if p.acceptKeyword("MIN") {
				strong = true
			}
		default:
			return nil, fmt.Errorf("sql: expected IMMEDIATE or DEFERRED after REFRESH, got %s", p.peek())
		}
	}
	if err := p.expectKeyword("AS"); err != nil {
		return nil, err
	}
	q, err := p.selectStmt()
	if err != nil {
		return nil, err
	}
	return &CreateView{Name: name, Mode: mode, Strong: strong, Query: q}, nil
}

func (p *parser) drop() (Stmt, error) {
	switch {
	case p.acceptKeyword("TABLE"):
		name, err := p.bareIdent()
		if err != nil {
			return nil, err
		}
		return &DropStmt{Name: name}, nil
	case p.acceptKeyword("VIEW"):
		name, err := p.bareIdent()
		if err != nil {
			return nil, err
		}
		return &DropStmt{View: true, Name: name}, nil
	}
	return nil, fmt.Errorf("sql: expected TABLE or VIEW after DROP, got %s", p.peek())
}

func (p *parser) selectStmt() (*SelectStmt, error) {
	head, err := p.simpleSelect()
	if err != nil {
		return nil, err
	}
	out := &SelectStmt{Head: head, Limit: -1}
loop:
	for {
		var op string
		switch {
		case p.acceptKeyword("UNION"):
			if err := p.expectKeyword("ALL"); err != nil {
				return nil, fmt.Errorf("%w (only UNION ALL is supported; bag semantics)", err)
			}
			op = "UNION ALL"
		case p.acceptKeyword("EXCEPT"):
			op = "EXCEPT"
		case p.acceptKeyword("MONUS"):
			op = "MONUS"
		case p.acceptKeyword("MIN"):
			op = "MIN"
		case p.acceptKeyword("MAX"):
			op = "MAX"
		default:
			break loop
		}
		right, err := p.simpleSelect()
		if err != nil {
			return nil, err
		}
		out.Ops = append(out.Ops, CompoundOp{Op: op, Right: right})
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			key := OrderKey{Col: col}
			if p.acceptKeyword("DESC") {
				key.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			out.OrderBy = append(out.OrderBy, key)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("LIMIT") {
		t := p.peek()
		if t.kind != tokNumber {
			return nil, fmt.Errorf("sql: expected a number after LIMIT, got %s", t)
		}
		l, err := numberLit(t.text)
		if err != nil {
			return nil, err
		}
		if l.Type() != schema.TInt || l.AsInt() < 0 {
			return nil, fmt.Errorf("sql: LIMIT must be a non-negative integer")
		}
		p.i++
		out.Limit = int(l.AsInt())
	}
	return out, nil
}

func (p *parser) simpleSelect() (*SimpleSelect, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	s := &SimpleSelect{}
	if p.acceptKeyword("DISTINCT") {
		s.Distinct = true
	}
	if p.acceptSymbol("*") {
		s.Star = true
	} else {
		for {
			item, err := p.selectItem()
			if err != nil {
				return nil, err
			}
			if p.acceptKeyword("AS") {
				alias, err := p.bareIdent()
				if err != nil {
					return nil, err
				}
				item.Alias = alias
			}
			s.Items = append(s.Items, item)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	for {
		name, err := p.bareIdent()
		if err != nil {
			return nil, err
		}
		ref := TableRef{Name: name}
		p.acceptKeyword("AS")
		if p.peek().kind == tokIdent {
			ref.Alias = p.next().text
		}
		s.From = append(s.From, ref)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if p.acceptKeyword("WHERE") {
		e, err := p.boolExpr()
		if err != nil {
			return nil, err
		}
		s.Where = e
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			s.GroupBy = append(s.GroupBy, col)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	return s, nil
}

func (p *parser) insert() (Stmt, error) {
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	name, err := p.bareIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	rows := make([]schema.Tuple, 0, p.valuesRows())
	for {
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		row := make(schema.Tuple, 0, p.rowWidth())
		for {
			v, err := p.literal()
			if err != nil {
				return nil, err
			}
			row = append(row, v)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		rows = append(rows, row)
		if !p.acceptSymbol(",") {
			break
		}
	}
	return &InsertStmt{Table: name, Rows: rows}, nil
}

// valuesRows counts the rows of the VALUES list ahead, the "(" before
// the statement ends (no literal holds one), so the row list is made at
// its length. It only reads the lexed tokens; a malformed list is the
// parse's to report.
func (p *parser) valuesRows() int {
	n := 0
	for _, t := range p.toks[p.i:] {
		if t.kind == tokEOF || t.isSymbol(";") {
			break
		}
		if t.isSymbol("(") {
			n++
		}
	}
	return n
}

// rowWidth counts the values of the VALUES row whose "(" the parser has
// just taken: one more than the commas before the row's ")".
func (p *parser) rowWidth() int {
	n := 1
	for _, t := range p.toks[p.i:] {
		if t.isSymbol(")") {
			break
		}
		if t.isSymbol(",") {
			n++
		}
	}
	return n
}

func (p *parser) delete() (Stmt, error) {
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	name, err := p.bareIdent()
	if err != nil {
		return nil, err
	}
	d := &DeleteStmt{Table: name}
	if p.acceptKeyword("WHERE") {
		e, err := p.boolExpr()
		if err != nil {
			return nil, err
		}
		d.Where = e
	}
	return d, nil
}

// literal parses a (possibly negated) literal value.
func (p *parser) literal() (schema.Value, error) {
	t := p.peek()
	switch {
	case t.kind == tokNumber:
		p.i++
		return numberLit(t.text)
	case t.isSymbol("-"):
		p.i++
		t2 := p.peek()
		if t2.kind != tokNumber {
			return schema.Value{}, fmt.Errorf("sql: expected number after '-', got %s", t2)
		}
		p.i++
		v, err := numberLit(t2.text)
		if err != nil {
			return schema.Value{}, err
		}
		if v.Type() == schema.TInt {
			return schema.Int(-v.AsInt()), nil
		}
		return schema.Float(-v.AsFloat()), nil
	case t.kind == tokString:
		p.i++
		return schema.Str(t.text), nil
	case t.kind == tokKeyword && t.text == "NULL":
		p.i++
		return schema.Null(), nil
	case t.kind == tokKeyword && t.text == "TRUE":
		p.i++
		return schema.Bool(true), nil
	case t.kind == tokKeyword && t.text == "FALSE":
		p.i++
		return schema.Bool(false), nil
	}
	return schema.Value{}, fmt.Errorf("sql: expected literal, got %s", t)
}

func numberLit(text string) (schema.Value, error) {
	if strings.ContainsRune(text, '.') {
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return schema.Value{}, fmt.Errorf("sql: bad number %q: %v", text, err)
		}
		return schema.Float(f), nil
	}
	n, err := strconv.ParseInt(text, 10, 64)
	if err != nil {
		return schema.Value{}, fmt.Errorf("sql: bad number %q: %v", text, err)
	}
	return schema.Int(n), nil
}

// The expression grammar parses straight into the algebra: a WHERE is
// the predicate σ binds, a comparison a Cmp, AND and OR binary AndOf and
// OrOf nodes, and a scalar an Attr, a Const or an Arith.

// boolExpr parses OR-level boolean expressions.
func (p *parser) boolExpr() (algebra.Predicate, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = algebra.OrOf(l, r)
	}
	return l, nil
}

func (p *parser) andExpr() (algebra.Predicate, error) {
	l, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		r, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		l = algebra.AndOf(l, r)
	}
	return l, nil
}

func (p *parser) notExpr() (algebra.Predicate, error) {
	if p.acceptKeyword("NOT") {
		e, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return algebra.NotOf(e), nil
	}
	return p.comparison()
}

// cmpOp returns the operator a comparison symbol stands for.
func cmpOp(sym string) (algebra.CmpOp, bool) {
	switch sym {
	case "=":
		return algebra.EQ, true
	case "!=", "<>":
		return algebra.NE, true
	case "<":
		return algebra.LT, true
	case "<=":
		return algebra.LE, true
	case ">":
		return algebra.GT, true
	case ">=":
		return algebra.GE, true
	}
	return 0, false
}

func (p *parser) comparison() (algebra.Predicate, error) {
	// A parenthesized boolean sub-expression: '(' also begins a scalar
	// group, so try the boolean reading first and back out if it fails.
	if p.peek().isSymbol("(") {
		save := p.i
		p.i++
		if e, err := p.boolExpr(); err == nil && p.acceptSymbol(")") {
			return e, nil
		}
		p.i = save
	}
	l, err := p.scalarExpr()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	if t.kind == tokSymbol {
		if op, ok := cmpOp(t.text); ok {
			p.i++
			r, err := p.scalarExpr()
			if err != nil {
				return nil, err
			}
			return algebra.Cmp{Op: op, L: l, R: r}, nil
		}
	}
	// A bare TRUE/FALSE literal is a valid boolean expression.
	if c, ok := l.(algebra.Const); ok && c.Value.Type() == schema.TBool {
		return algebra.BoolLit{Value: c.Value.AsBool()}, nil
	}
	return nil, fmt.Errorf("sql: expected comparison operator, got %s", t)
}

// scalarExpr parses additive scalar expressions.
func (p *parser) scalarExpr() (algebra.Scalar, error) {
	l, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tokSymbol && (t.text == "+" || t.text == "-") {
			p.i++
			r, err := p.mulExpr()
			if err != nil {
				return nil, err
			}
			op := algebra.OpAdd
			if t.text == "-" {
				op = algebra.OpSub
			}
			l = algebra.Arith{Op: op, L: l, R: r}
			continue
		}
		return l, nil
	}
}

func (p *parser) mulExpr() (algebra.Scalar, error) {
	l, err := p.primary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tokSymbol && (t.text == "*" || t.text == "/") {
			p.i++
			r, err := p.primary()
			if err != nil {
				return nil, err
			}
			op := algebra.OpMul
			if t.text == "/" {
				op = algebra.OpDiv
			}
			l = algebra.Arith{Op: op, L: l, R: r}
			continue
		}
		return l, nil
	}
}

func (p *parser) primary() (algebra.Scalar, error) {
	t := p.peek()
	switch {
	case t.kind == tokIdent:
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return algebra.A(name), nil
	case t.isSymbol("("):
		p.i++
		e, err := p.scalarExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return e, nil
	default:
		v, err := p.literal()
		if err != nil {
			return nil, err
		}
		return algebra.Const{Value: v}, nil
	}
}

// selectItem parses a select-list item: an aggregate call or a scalar.
// Aggregates are select items only; MIN and MAX are keywords (they also
// name compound operators), COUNT, SUM and AVG identifiers, and each is
// a call only before '('.
func (p *parser) selectItem() (SelectItem, error) {
	t, fn := p.peek(), ""
	switch {
	case t.kind == tokKeyword && (t.text == "MIN" || t.text == "MAX"):
		fn = t.text
	case t.kind == tokIdent:
		for _, f := range [...]string{"COUNT", "SUM", "AVG"} {
			if strings.EqualFold(t.text, f) {
				fn = f
			}
		}
	}
	if fn != "" && p.toks[p.i+1].isSymbol("(") {
		p.i++
		agg, err := p.aggregateCall(fn)
		return SelectItem{Agg: agg}, err
	}
	e, err := p.scalarExpr()
	return SelectItem{Expr: e}, err
}

// aggregateCall parses the parenthesized argument of an aggregate whose
// function name has just been consumed: * or a scalar.
func (p *parser) aggregateCall(fn string) (*AggExpr, error) {
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	agg := &AggExpr{Func: fn}
	if p.acceptSymbol("*") {
		agg.Star = true
	} else {
		arg, err := p.scalarExpr()
		if err != nil {
			return nil, err
		}
		agg.Arg = arg
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return agg, nil
}
