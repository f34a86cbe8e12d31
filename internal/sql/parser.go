package sql

import (
	"fmt"
	"strconv"
	"strings"

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
		if l.Value.Type() != schema.TInt || l.Value.AsInt() < 0 {
			return nil, fmt.Errorf("sql: LIMIT must be a non-negative integer")
		}
		p.i++
		out.Limit = int(l.Value.AsInt())
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
			e, err := p.scalarExpr()
			if err != nil {
				return nil, err
			}
			item := SelectItem{Expr: e}
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
			l, err := p.literal()
			if err != nil {
				return nil, err
			}
			row = append(row, l.Value)
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
func (p *parser) literal() (Lit, error) {
	t := p.peek()
	switch {
	case t.kind == tokNumber:
		p.i++
		return numberLit(t.text)
	case t.isSymbol("-"):
		p.i++
		t2 := p.peek()
		if t2.kind != tokNumber {
			return Lit{}, fmt.Errorf("sql: expected number after '-', got %s", t2)
		}
		p.i++
		l, err := numberLit(t2.text)
		if err != nil {
			return Lit{}, err
		}
		if l.Value.Type() == schema.TInt {
			return Lit{Value: schema.Int(-l.Value.AsInt())}, nil
		}
		return Lit{Value: schema.Float(-l.Value.AsFloat())}, nil
	case t.kind == tokString:
		p.i++
		return Lit{Value: schema.Str(t.text)}, nil
	case t.kind == tokKeyword && t.text == "NULL":
		p.i++
		return Lit{Value: schema.Null()}, nil
	case t.kind == tokKeyword && t.text == "TRUE":
		p.i++
		return Lit{Value: schema.Bool(true)}, nil
	case t.kind == tokKeyword && t.text == "FALSE":
		p.i++
		return Lit{Value: schema.Bool(false)}, nil
	}
	return Lit{}, fmt.Errorf("sql: expected literal, got %s", t)
}

func numberLit(text string) (Lit, error) {
	if strings.ContainsRune(text, '.') {
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return Lit{}, fmt.Errorf("sql: bad number %q: %v", text, err)
		}
		return Lit{Value: schema.Float(f)}, nil
	}
	n, err := strconv.ParseInt(text, 10, 64)
	if err != nil {
		return Lit{}, fmt.Errorf("sql: bad number %q: %v", text, err)
	}
	return Lit{Value: schema.Int(n)}, nil
}

// boolExpr parses OR-level boolean expressions.
func (p *parser) boolExpr() (Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) andExpr() (Expr, error) {
	l, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		r, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) notExpr() (Expr, error) {
	if p.acceptKeyword("NOT") {
		e, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return &NotExpr{E: e}, nil
	}
	return p.comparison()
}

func (p *parser) comparison() (Expr, error) {
	// Parenthesized boolean sub-expression: lookahead required since '('
	// also begins a scalar group. Try boolean first by checkpointing.
	if p.peek().isSymbol("(") {
		save := p.i
		p.i++
		if e, err := p.boolExpr(); err == nil {
			if p.acceptSymbol(")") {
				// Only treat as boolean group if not followed by an
				// arithmetic/comparison continuation that expects a scalar.
				if isBool(e) {
					return e, nil
				}
			}
		}
		p.i = save
	}
	l, err := p.scalarExpr()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	if t.kind == tokSymbol {
		switch t.text {
		case "=", "!=", "<>", "<", "<=", ">", ">=":
			p.i++
			r, err := p.scalarExpr()
			if err != nil {
				return nil, err
			}
			op := t.text
			if op == "<>" {
				op = "!="
			}
			return &BinExpr{Op: op, L: l, R: r}, nil
		}
	}
	// A bare TRUE/FALSE literal is a valid boolean expression.
	if lit, ok := l.(Lit); ok && lit.Value.Type() == schema.TBool {
		return l, nil
	}
	return nil, fmt.Errorf("sql: expected comparison operator, got %s", t)
}

// isBool reports whether e is a boolean-shaped expression.
func isBool(e Expr) bool {
	switch x := e.(type) {
	case *BinExpr:
		switch x.Op {
		case "AND", "OR", "=", "!=", "<", "<=", ">", ">=":
			return true
		}
		return false
	case *NotExpr:
		return true
	case Lit:
		return x.Value.Type() == schema.TBool
	}
	return false
}

// scalarExpr parses additive scalar expressions.
func (p *parser) scalarExpr() (Expr, error) {
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
			l = &BinExpr{Op: t.text, L: l, R: r}
			continue
		}
		return l, nil
	}
}

func (p *parser) mulExpr() (Expr, error) {
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
			l = &BinExpr{Op: t.text, L: l, R: r}
			continue
		}
		return l, nil
	}
}

func (p *parser) primary() (Expr, error) {
	t := p.peek()
	switch {
	case t.kind == tokKeyword && (t.text == "MIN" || t.text == "MAX"):
		// MIN(...)/MAX(...) aggregate; the bare keywords also serve as
		// compound operators, so only treat them as calls before '('.
		if p.toks[p.i+1].isSymbol("(") {
			p.i++
			return p.aggregateCall(t.text)
		}
		return nil, fmt.Errorf("sql: unexpected %s", t)
	case t.kind == tokIdent:
		if p.toks[p.i+1].isSymbol("(") {
			for _, fn := range [...]string{"COUNT", "SUM", "AVG"} {
				if strings.EqualFold(t.text, fn) {
					p.i++
					return p.aggregateCall(fn)
				}
			}
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &ColRef{Name: name}, nil
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
		l, err := p.literal()
		if err != nil {
			return nil, err
		}
		return l, nil
	}
}

// aggregateCall parses the parenthesized argument of an aggregate whose
// function name has just been consumed.
func (p *parser) aggregateCall(fn string) (Expr, error) {
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	if p.acceptSymbol("*") {
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return &AggExpr{Func: fn, Star: true}, nil
	}
	arg, err := p.scalarExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return &AggExpr{Func: fn, Arg: arg}, nil
}
