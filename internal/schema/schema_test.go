package schema

import (
	"strings"
	"testing"
)

func custSchema() *Schema {
	return NewSchema(
		Col("custId", TInt),
		Col("name", TString),
		Col("score", TString),
	)
}

func TestSchemaBasics(t *testing.T) {
	s := custSchema()
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.Column(1).Name != "name" {
		t.Fatalf("Column(1) = %v", s.Column(1))
	}
	if got := len(s.Columns()); got != 3 {
		t.Fatalf("Columns len = %d", got)
	}
	p, err := s.Lookup("score")
	if err != nil || p != 2 {
		t.Fatalf("Lookup(score) = %d, %v", p, err)
	}
	if _, err := s.Lookup("missing"); err == nil {
		t.Fatal("Lookup(missing) should fail")
	}
	if got := s.MustLookup("custId"); got != 0 {
		t.Fatalf("MustLookup = %d", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MustLookup(missing) should panic")
			}
		}()
		s.MustLookup("missing")
	}()
}

func TestSchemaQualifiedLookup(t *testing.T) {
	s := NewSchema(Col("c.custId", TInt), Col("c.name", TString), Col("s.itemNo", TInt))
	if p, err := s.Lookup("itemNo"); err != nil || p != 2 {
		t.Fatalf("unqualified suffix lookup = %d, %v", p, err)
	}
	if p, err := s.Lookup("c.name"); err != nil || p != 1 {
		t.Fatalf("qualified lookup = %d, %v", p, err)
	}
	dup := NewSchema(Col("c.id", TInt), Col("s.id", TInt))
	if _, err := dup.Lookup("id"); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("expected ambiguous error, got %v", err)
	}
}

func TestSchemaDuplicateNameAmbiguity(t *testing.T) {
	s := NewSchema(Col("x", TInt), Col("x", TInt))
	if _, err := s.Lookup("x"); err == nil {
		t.Fatal("duplicate name should be ambiguous")
	}
}

func TestSchemaConcatProjectRename(t *testing.T) {
	a := NewSchema(Col("a", TInt), Col("b", TString))
	b := NewSchema(Col("c", TFloat))
	cat := a.Concat(b)
	if cat.Len() != 3 || cat.Column(2).Name != "c" {
		t.Fatalf("Concat wrong: %v", cat)
	}
	proj := cat.Project([]int{2, 0})
	if proj.Len() != 2 || proj.Column(0).Name != "c" || proj.Column(1).Name != "a" {
		t.Fatalf("Project wrong: %v", proj)
	}
	ren, err := a.Rename([]string{"x", "y"})
	if err != nil || ren.Column(0).Name != "x" {
		t.Fatalf("Rename wrong: %v, %v", ren, err)
	}
	if _, err := a.Rename([]string{"only-one"}); err == nil {
		t.Fatal("arity-mismatched rename should fail")
	}
}

func TestSchemaQualify(t *testing.T) {
	s := NewSchema(Col("custId", TInt), Col("t.name", TString))
	q := s.Qualify("c")
	if q.Column(0).Name != "c.custId" {
		t.Fatalf("Qualify = %v", q)
	}
	// Re-qualification replaces the old qualifier.
	if q.Column(1).Name != "c.name" {
		t.Fatalf("Qualify requalify = %v", q)
	}
}

func TestSchemaCompatible(t *testing.T) {
	a := NewSchema(Col("a", TInt), Col("b", TString))
	b := NewSchema(Col("x", TFloat), Col("y", TString))
	if !a.Compatible(b) {
		t.Fatal("int/float columns should be union-compatible")
	}
	c := NewSchema(Col("x", TString), Col("y", TString))
	if a.Compatible(c) {
		t.Fatal("int vs string should not be compatible")
	}
	d := NewSchema(Col("x", TInt))
	if a.Compatible(d) {
		t.Fatal("different arity should not be compatible")
	}
	n := NewSchema(Col("x", TNull), Col("y", TNull))
	if !a.Compatible(n) {
		t.Fatal("NULL columns are wildcard-compatible")
	}
}

func TestSchemaEqual(t *testing.T) {
	a := custSchema()
	if !a.Equal(custSchema()) {
		t.Fatal("identical schemas should be Equal")
	}
	if a.Equal(NewSchema(Col("custId", TInt))) {
		t.Fatal("different arity should not be Equal")
	}
	if a.Equal(NewSchema(Col("custId", TFloat), Col("name", TString), Col("score", TString))) {
		t.Fatal("different type should not be Equal")
	}
}

func TestSchemaValidate(t *testing.T) {
	s := custSchema()
	if err := s.Validate(Row(1, "alice", "High")); err != nil {
		t.Fatalf("valid tuple rejected: %v", err)
	}
	if err := s.Validate(Row(1, "alice")); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	if err := s.Validate(Row("x", "alice", "High")); err == nil {
		t.Fatal("type mismatch accepted")
	}
	if err := s.Validate(Row(nil, nil, nil)); err != nil {
		t.Fatalf("NULLs should validate: %v", err)
	}
	f := NewSchema(Col("price", TFloat))
	if err := f.Validate(Row(3)); err != nil {
		t.Fatalf("int into float column should validate: %v", err)
	}
}

func TestSchemaString(t *testing.T) {
	got := custSchema().String()
	want := "(custId INT, name STRING, score STRING)"
	if got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}

func TestTupleOps(t *testing.T) {
	a := Row(1, "x")
	b := a.Clone()
	b[0] = Int(2)
	if a[0].AsInt() != 1 {
		t.Fatal("Clone aliases storage")
	}
	if !a.Equal(Row(1, "x")) || a.Equal(Row(1, "y")) || a.Equal(Row(1)) {
		t.Fatal("Tuple.Equal wrong")
	}
	if a.Compare(Row(1, "y")) >= 0 || a.Compare(Row(0, "x")) <= 0 || a.Compare(a) != 0 {
		t.Fatal("Tuple.Compare wrong")
	}
	if Row(1).Compare(Row(1, "x")) >= 0 {
		t.Fatal("shorter tuple should sort first")
	}
	cat := a.Concat(Row(true))
	if len(cat) != 3 || !cat[2].AsBool() {
		t.Fatal("Concat wrong")
	}
	proj := cat.Project([]int{2, 0})
	if !proj.Equal(Row(true, 1)) {
		t.Fatal("Project wrong")
	}
	if got := a.String(); got != `[1, "x"]` {
		t.Fatalf("Tuple.String = %q", got)
	}
}

func TestRowPanicsOnUnsupported(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Row should panic on unsupported kind")
		}
	}()
	Row(struct{}{})
}

// TestTupleKeySelfDelimiting: a tuple's key is its values' keys back to
// back, so each value's key must end where it says: tuples that differ
// only in where one string ends and the next begins, or whose string
// spells another tuple's key, must not collide.
func TestTupleKeySelfDelimiting(t *testing.T) {
	x := func(n int) string { return strings.Repeat("x", n) }
	ab := Row("a", "b").Key()
	pairs := [][2]Tuple{
		{Row("a", "b"), Row("ab")},
		{Row("a|", "b"), Row("a", "|b")},
		{Row("ab", "c"), Row("a", "bc")},
		{Row(x(127), "xx"), Row(x(128), "x")}, // the length's varint grows a byte
		{Row("", "a"), Row("a", "")},
		{Row(1, 2), Row(12)},
		{Row(""), Row()},
		{Row("a", "b"), Row(ab)},
		{Row("a", "b"), Row(ab[1:])}, // the key less its first tag
		{Row(1, 2), Row(Row(1, 2).Key())},
		{Row("a", 1.5), Row("a" + Row(1.5).Key())},
	}
	for _, p := range pairs {
		if p[0].Key() == p[1].Key() {
			t.Errorf("key collision between %v and %v", p[0], p[1])
		}
	}
}

// TestTupleKeyIsOneAllocation: Key builds its encoding in a stack
// scratch, so a key that fits 128 bytes costs the string and nothing
// else; a longer one spills to the heap and is encoded all the same.
func TestTupleKeyIsOneAllocation(t *testing.T) {
	short := Row(12345, 678, 9, 1.25, "High", nil, true)
	if n := len(short.Key()); n > 128 {
		t.Fatalf("fixture key is %d bytes, want <= 128", n)
	}
	var sink string
	if allocs := testing.AllocsPerRun(100, func() { sink = short.Key() }); allocs != 1 {
		t.Fatalf("Key of a %d-byte key: %v allocations, want 1", len(sink), allocs)
	}
	long := Row(1, strings.Repeat("x", 1024), 2)
	// INT 1 and 2 as zigzag varints; 1024 as the uvarint 0x80 0x08.
	if got, want := long.Key(), "i\x02s\x80\x08"+strings.Repeat("x", 1024)+"i\x04"; got != want {
		t.Fatalf("Key of a 1 KiB string column = %q, want %q", got, want)
	}
}

// TestSchemaAllocatesItsColumnsOnly: a schema is its column list and
// nothing else, so NewSchema over a slice makes 1 object (the Schema),
// and Qualify makes 3 — the columns, one string that holds every new
// name, and the Schema — whatever the number of columns. Lookup scans
// the columns and allocates nothing when the name resolves.
func TestSchemaAllocatesItsColumnsOnly(t *testing.T) {
	cols := []Column{Col("custId", TInt), Col("t.name", TString), Col("score", TString), Col("itemNo", TInt)}
	var s *Schema
	if n := testing.AllocsPerRun(100, func() { s = NewSchema(cols...) }); n != 1 {
		t.Errorf("NewSchema of %d columns makes %v objects, want 1", len(cols), n)
	}
	var q *Schema
	if n := testing.AllocsPerRun(100, func() { q = s.Qualify("hv") }); n != 3 {
		t.Errorf("Qualify of %d columns makes %v objects, want 3", len(cols), n)
	}
	want := []string{"hv.custId", "hv.name", "hv.score", "hv.itemNo"}
	for i, w := range want {
		if got := q.Column(i); got.Name != w || got.Type != cols[i].Type {
			t.Errorf("Qualify column %d = %v, want %s %s", i, got, w, cols[i].Type)
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		if p, err := q.Lookup("score"); p != 2 || err != nil {
			t.Fatalf("Lookup(score) = %d, %v", p, err)
		}
	}); n != 0 {
		t.Errorf("a resolving Lookup makes %v objects, want 0", n)
	}
}

// TestSchemaExactNameBeatsSuffix: an exact match wins over a qualified
// column whose bare name matches, and only two exact matches, or two
// suffix matches with no exact one, are ambiguous.
func TestSchemaExactNameBeatsSuffix(t *testing.T) {
	s := NewSchema(Col("a.x", TInt), Col("x", TInt), Col("b.x", TInt))
	if p, err := s.Lookup("x"); err != nil || p != 1 {
		t.Fatalf("Lookup(x) = %d, %v; want the exact column 1", p, err)
	}
	if p, err := s.Lookup("b.x"); err != nil || p != 2 {
		t.Fatalf("Lookup(b.x) = %d, %v", p, err)
	}
	dup := NewSchema(Col("a.x", TInt), Col("x", TInt), Col("x", TInt))
	if _, err := dup.Lookup("x"); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("two exact matches: got %v, want ambiguous", err)
	}
	if _, err := dup.Lookup("y"); err == nil || !strings.Contains(err.Error(), "no attribute") {
		t.Fatalf("Lookup(y) = %v, want no attribute", err)
	}
}
