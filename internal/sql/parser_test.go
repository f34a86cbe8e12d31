package sql

import (
	"strings"
	"testing"

	"dvm/internal/algebra"
	"dvm/internal/schema"
)

func mustParse(t *testing.T, in string) Stmt {
	t.Helper()
	st, err := Parse(in)
	if err != nil {
		t.Fatalf("Parse(%q): %v", in, err)
	}
	return st
}

func TestLexBasics(t *testing.T) {
	toks, err := lex("SELECT a.b, 'it''s', 3.5 -- comment\nFROM t;")
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tk := range toks {
		if tk.kind == tokEOF {
			break
		}
		texts = append(texts, tk.text)
	}
	want := []string{"SELECT", "a", ".", "b", ",", "it's", ",", "3.5", "FROM", "t", ";"}
	if strings.Join(texts, "|") != strings.Join(want, "|") {
		t.Fatalf("lex = %v, want %v", texts, want)
	}
}

// TestLexKeywordsInAnyCase: every keyword, in lower and in mixed case,
// lexes as that keyword with upper-case text; a word that only resembles
// one stays an identifier, as written.
func TestLexKeywordsInAnyCase(t *testing.T) {
	longest := 0
	for kw := range keywords {
		longest = max(longest, len(kw))
		mixed := []byte(strings.ToLower(kw))
		for i := 0; i < len(mixed); i += 2 {
			mixed[i] -= 'a' - 'A'
		}
		for _, word := range []string{kw, strings.ToLower(kw), string(mixed)} {
			toks, err := lex(word)
			if err != nil {
				t.Fatal(err)
			}
			if toks[0].kind != tokKeyword || toks[0].text != kw || len(toks) != 2 {
				t.Errorf("lex(%q) = %v, want the keyword %s", word, toks, kw)
			}
		}
	}
	if longest != maxKeyword {
		t.Fatalf("the longest keyword is %d bytes, maxKeyword says %d", longest, maxKeyword)
	}
	for _, word := range []string{
		"differentials", "DIFFERENTIALLY", "invariantsxyz", // longer than any keyword
		"s\xe9lect", "\xc0\xc9\xd6", "vi\xeaw", // Latin-1 letter bytes
		"selec", "Materialize", "grou", "b", // prefixes of keywords
	} {
		toks, err := lex(word)
		if err != nil {
			t.Fatal(err)
		}
		if toks[0].kind != tokIdent || toks[0].text != word || len(toks) != 2 {
			t.Errorf("lex(%q) = %v, want the identifier as written", word, toks)
		}
	}
}

func TestLexErrors(t *testing.T) {
	if _, err := lex("'unterminated"); err == nil {
		t.Fatal("unterminated string accepted")
	}
	if _, err := lex("a @ b"); err == nil {
		t.Fatal("bad character accepted")
	}
}

func TestParseCreateTable(t *testing.T) {
	st := mustParse(t, "CREATE TABLE sales (custId INT, name STRING, price FLOAT, ok BOOL)")
	ct, isCT := st.(*CreateTable)
	if !isCT || ct.Name != "sales" || len(ct.Cols) != 4 {
		t.Fatalf("parse = %#v", st)
	}
	if ct.Cols[0] != schema.Col("custId", schema.TInt) ||
		ct.Cols[2] != schema.Col("price", schema.TFloat) {
		t.Fatalf("cols = %v", ct.Cols)
	}
	for _, bad := range []string{
		"CREATE TABLE t", "CREATE TABLE t ()", "CREATE TABLE t (x BLOB)",
		"CREATE TABLE t (x INT", "CREATE SOMETHING t",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

func TestParseCreateView(t *testing.T) {
	st := mustParse(t, `CREATE MATERIALIZED VIEW hv REFRESH DEFERRED COMBINED AS
		SELECT c.custId, s.itemNo FROM customer c, sales s WHERE c.custId = s.custId`)
	cv := st.(*CreateView)
	if cv.Name != "hv" || cv.Mode != "COMBINED" || cv.Strong {
		t.Fatalf("view = %+v", cv)
	}
	if len(cv.Query.Head.From) != 2 || cv.Query.Head.From[1].Alias != "s" {
		t.Fatalf("from = %+v", cv.Query.Head.From)
	}

	modes := map[string]string{
		"REFRESH IMMEDIATE":             "IMMEDIATE",
		"REFRESH DEFERRED LOGGED":       "LOGGED",
		"REFRESH DEFERRED DIFFERENTIAL": "DIFFERENTIAL",
		"REFRESH DEFERRED":              "COMBINED",
		"":                              "COMBINED",
	}
	for clause, want := range modes {
		src := "CREATE MATERIALIZED VIEW v " + clause + " AS SELECT * FROM t"
		cv := mustParse(t, src).(*CreateView)
		if cv.Mode != want {
			t.Errorf("%q → mode %q, want %q", clause, cv.Mode, want)
		}
	}
	sm := mustParse(t, "CREATE MATERIALIZED VIEW v REFRESH DEFERRED COMBINED MIN AS SELECT * FROM t").(*CreateView)
	if !sm.Strong {
		t.Fatal("MIN suffix did not set Strong")
	}
}

func TestParseSelect(t *testing.T) {
	st := mustParse(t, `SELECT DISTINCT a.x AS col, b.y FROM t1 a, t2 AS b WHERE a.x = b.y AND NOT b.y < 3 OR a.x != 0`)
	ss := st.(*SelectStmt)
	h := ss.Head
	if !h.Distinct || h.Star || len(h.Items) != 2 || h.Items[0].Alias != "col" {
		t.Fatalf("head = %+v", h)
	}
	or, ok := h.Where.(algebra.Or)
	if !ok || len(or.Preds) != 2 {
		t.Fatalf("where = %s (precedence wrong)", h.Where)
	}
	and, ok := or.Preds[0].(algebra.And)
	if !ok {
		t.Fatalf("AND below OR expected, got %s", or.Preds[0])
	}
	if _, ok := and.Preds[1].(algebra.Not); !ok {
		t.Fatalf("NOT expected, got %s", and.Preds[1])
	}
}

func TestParseCompound(t *testing.T) {
	st := mustParse(t, "SELECT * FROM a UNION ALL SELECT * FROM b EXCEPT SELECT * FROM c MONUS SELECT * FROM d")
	ss := st.(*SelectStmt)
	if len(ss.Ops) != 3 || ss.Ops[0].Op != "UNION ALL" || ss.Ops[1].Op != "EXCEPT" || ss.Ops[2].Op != "MONUS" {
		t.Fatalf("ops = %+v", ss.Ops)
	}
	if _, err := Parse("SELECT * FROM a UNION SELECT * FROM b"); err == nil {
		t.Fatal("bare UNION (set semantics) should be rejected")
	}
	st = mustParse(t, "SELECT * FROM a MIN SELECT * FROM b MAX SELECT * FROM c")
	ss = st.(*SelectStmt)
	if len(ss.Ops) != 2 || ss.Ops[0].Op != "MIN" || ss.Ops[1].Op != "MAX" {
		t.Fatalf("ops = %+v", ss.Ops)
	}
}

func TestParseInsert(t *testing.T) {
	st := mustParse(t, "INSERT INTO t VALUES (1, 'x', 2.5, TRUE, NULL), (-2, 'y', -0.5, FALSE, 3)")
	ins := st.(*InsertStmt)
	if ins.Table != "t" || len(ins.Rows) != 2 || len(ins.Rows[0]) != 5 {
		t.Fatalf("insert = %+v", ins)
	}
	if ins.Rows[1][0].AsInt() != -2 || ins.Rows[1][2].AsFloat() != -0.5 {
		t.Fatal("negative literals wrong")
	}
	if !ins.Rows[0][4].IsNull() {
		t.Fatal("NULL literal wrong")
	}
	for _, bad := range []string{
		"INSERT t VALUES (1)", "INSERT INTO t (1)", "INSERT INTO t VALUES 1",
		"INSERT INTO t VALUES (1", "INSERT INTO t VALUES (-)",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

func TestParseDelete(t *testing.T) {
	st := mustParse(t, "DELETE FROM t WHERE x > 3 + 1 * 2")
	d := st.(*DeleteStmt)
	if d.Table != "t" || d.Where == nil {
		t.Fatalf("delete = %+v", d)
	}
	cmp := d.Where.(algebra.Cmp)
	add := cmp.R.(algebra.Arith)
	if add.Op != algebra.OpAdd {
		t.Fatalf("rhs = %s", cmp.R)
	}
	if mul := add.R.(algebra.Arith); mul.Op != algebra.OpMul {
		t.Fatal("arithmetic precedence wrong")
	}
	st = mustParse(t, "DELETE FROM t")
	if st.(*DeleteStmt).Where != nil {
		t.Fatal("missing WHERE should be nil")
	}
}

func TestParseMaintenance(t *testing.T) {
	cases := map[string]MaintStmt{
		"REFRESH VIEW hv":    {Op: "REFRESH", View: "hv"},
		"REFRESH hv":         {Op: "REFRESH", View: "hv"},
		"PROPAGATE VIEW hv":  {Op: "PROPAGATE", View: "hv"},
		"PARTIAL REFRESH hv": {Op: "PARTIAL", View: "hv"},
		"RECOMPUTE hv":       {Op: "RECOMPUTE", View: "hv"},
		"CHECK INVARIANT hv": {Op: "CHECK", View: "hv"},
	}
	for in, want := range cases {
		got := mustParse(t, in).(*MaintStmt)
		if *got != want {
			t.Errorf("%q = %+v, want %+v", in, got, want)
		}
	}
}

func TestParseShowAndDrop(t *testing.T) {
	if !mustParse(t, "SHOW VIEWS").(*ShowStmt).Views {
		t.Fatal("SHOW VIEWS wrong")
	}
	if mustParse(t, "SHOW TABLES").(*ShowStmt).Views {
		t.Fatal("SHOW TABLES wrong")
	}
	d := mustParse(t, "DROP VIEW v").(*DropStmt)
	if !d.View || d.Name != "v" {
		t.Fatal("DROP VIEW wrong")
	}
	d = mustParse(t, "DROP TABLE t").(*DropStmt)
	if d.View {
		t.Fatal("DROP TABLE wrong")
	}
}

func TestParseScript(t *testing.T) {
	stmts, err := ParseScript(`
		CREATE TABLE t (x INT);
		INSERT INTO t VALUES (1);
		SELECT * FROM t
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Fatalf("got %d statements", len(stmts))
	}
	if _, err := ParseScript("SELECT * FROM t SELECT * FROM u"); err == nil {
		t.Fatal("missing semicolon accepted")
	}
}

func TestParseTrailingInput(t *testing.T) {
	// "FROM t garbage" parses as an alias; a trailing symbol does not.
	if _, err := Parse("SELECT * FROM t )"); err == nil {
		t.Fatal("trailing garbage accepted")
	}
	if _, err := Parse("SELECT * FROM t WHERE x = 1 2"); err == nil {
		t.Fatal("trailing literal accepted")
	}
}

func TestParseParenthesizedBool(t *testing.T) {
	st := mustParse(t, "SELECT * FROM t WHERE (x = 1 OR y = 2) AND z = 3")
	w, ok := st.(*SelectStmt).Head.Where.(algebra.And)
	if !ok {
		t.Fatalf("top = %s", st.(*SelectStmt).Head.Where)
	}
	if _, ok := w.Preds[0].(algebra.Or); !ok {
		t.Fatalf("grouping lost: %s", w.Preds[0])
	}
	// Parenthesized scalar must still work.
	st = mustParse(t, "SELECT * FROM t WHERE (x + 1) * 2 = 4")
	if st.(*SelectStmt).Head.Where == nil {
		t.Fatal("scalar parens broken")
	}
}
