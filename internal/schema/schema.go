package schema

import (
	"fmt"
	"strings"
)

// Column is a named, typed attribute of a relation.
type Column struct {
	Name string
	Type Type
}

// Col is a convenience constructor.
func Col(name string, t Type) Column { return Column{Name: name, Type: t} }

// Schema is an ordered list of columns describing a relation's tuples.
// Attribute names are case-sensitive and should be unique within a schema;
// the algebra compiler qualifies names (e.g. "s.custId") when joining.
type Schema struct {
	cols []Column
}

// NewSchema builds a schema from columns: one object, whatever their
// number. Duplicate names are allowed at construction (products create
// them), but looking up a duplicated name reports an error. The schema
// keeps cols, so a caller that passes a slice (cols...) must not change
// it afterwards. There is no name index: names are resolved by Lookup,
// which runs when a plan or predicate is bound, never per tuple.
func NewSchema(cols ...Column) *Schema { return &Schema{cols: cols} }

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.cols) }

// Columns returns a copy of the column list.
func (s *Schema) Columns() []Column { return append([]Column(nil), s.cols...) }

// Column returns the i'th column.
func (s *Schema) Column(i int) Column { return s.cols[i] }

// Lookup resolves an attribute name to its position by scanning the
// columns: an exact match first (two of them make the name ambiguous),
// then an unqualified name against qualified columns ("custId" finding
// "c.custId"), when only one column matches.
func (s *Schema) Lookup(name string) (int, error) {
	if p, err := s.scan(name, func(c string) bool { return c == name }); p >= 0 || err != nil {
		return p, err
	}
	if p, err := s.scan(name, func(c string) bool { return suffixMatch(c, name) }); p >= 0 || err != nil {
		return p, err
	}
	return 0, fmt.Errorf("schema: no attribute %q in %s", name, s)
}

// scan returns the one column position whose name matches, -1 for none,
// or an error when two match.
func (s *Schema) scan(name string, match func(string) bool) (int, error) {
	found := -1
	for i, c := range s.cols {
		if match(c.Name) {
			if found >= 0 {
				return 0, fmt.Errorf("schema: ambiguous attribute %q", name)
			}
			found = i
		}
	}
	return found, nil
}

// suffixMatch reports whether qualified equals name after stripping a
// "table." qualifier.
func suffixMatch(qualified, name string) bool {
	if i := strings.IndexByte(qualified, '.'); i >= 0 {
		return qualified[i+1:] == name
	}
	return false
}

// MustLookup is Lookup that panics on error; for statically known names.
func (s *Schema) MustLookup(name string) int {
	p, err := s.Lookup(name)
	if err != nil {
		panic(err)
	}
	return p
}

// Concat returns the schema of a product: s's columns followed by o's.
func (s *Schema) Concat(o *Schema) *Schema {
	cols := make([]Column, 0, len(s.cols)+len(o.cols))
	cols = append(cols, s.cols...)
	cols = append(cols, o.cols...)
	return NewSchema(cols...)
}

// Project returns the schema restricted to the given positions.
func (s *Schema) Project(positions []int) *Schema {
	cols := make([]Column, len(positions))
	for i, p := range positions {
		cols[i] = s.cols[p]
	}
	return NewSchema(cols...)
}

// Rename returns a schema with the same types but new names.
func (s *Schema) Rename(names []string) (*Schema, error) {
	if len(names) != len(s.cols) {
		return nil, fmt.Errorf("schema: rename arity %d != %d", len(names), len(s.cols))
	}
	cols := make([]Column, len(s.cols))
	for i, c := range s.cols {
		cols[i] = Column{Name: names[i], Type: c.Type}
	}
	return NewSchema(cols...), nil
}

// Qualify returns a schema with every column name prefixed by "alias."
// in place of any qualifier it had. The new names are slices of one
// string, so the schema costs three objects: its columns, their names
// and itself.
func (s *Schema) Qualify(alias string) *Schema {
	n := 0
	for _, c := range s.cols {
		n += len(alias) + 1 + len(unqualified(c.Name))
	}
	var b strings.Builder
	b.Grow(n)
	for _, c := range s.cols {
		b.WriteString(alias)
		b.WriteByte('.')
		b.WriteString(unqualified(c.Name))
	}
	names := b.String()
	cols := make([]Column, len(s.cols))
	for i, c := range s.cols {
		w := len(alias) + 1 + len(unqualified(c.Name))
		cols[i] = Column{Name: names[:w], Type: c.Type}
		names = names[w:]
	}
	return NewSchema(cols...)
}

// unqualified returns name without its "table." qualifier, if any.
func unqualified(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[i+1:]
	}
	return name
}

// Compatible reports whether two schemas are union-compatible: same arity
// and the same column types position-by-position (names may differ; the
// left side's names win in union results, following SQL).
func (s *Schema) Compatible(o *Schema) bool {
	if len(s.cols) != len(o.cols) {
		return false
	}
	for i := range s.cols {
		a, b := s.cols[i].Type, o.cols[i].Type
		if a == b || a == TNull || b == TNull {
			continue
		}
		if (a == TInt || a == TFloat) && (b == TInt || b == TFloat) {
			continue
		}
		return false
	}
	return true
}

// Equal reports whether two schemas have identical columns.
func (s *Schema) Equal(o *Schema) bool {
	if len(s.cols) != len(o.cols) {
		return false
	}
	for i := range s.cols {
		if s.cols[i] != o.cols[i] {
			return false
		}
	}
	return true
}

// Validate reports an error when t does not conform to the schema.
func (s *Schema) Validate(t Tuple) error {
	if len(t) != len(s.cols) {
		return fmt.Errorf("schema: tuple arity %d != schema arity %d", len(t), len(s.cols))
	}
	for i, v := range t {
		if v.IsNull() {
			continue
		}
		want := s.cols[i].Type
		got := v.Type()
		if want == got {
			continue
		}
		if want == TFloat && got == TInt {
			continue
		}
		return fmt.Errorf("schema: column %q wants %s, tuple has %s", s.cols[i].Name, want, got)
	}
	return nil
}

// String renders the schema as (name TYPE, ...).
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, c := range s.cols {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.Name)
		b.WriteByte(' ')
		b.WriteString(c.Type.String())
	}
	b.WriteByte(')')
	return b.String()
}
