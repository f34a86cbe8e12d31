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
	pos  map[string]int
}

// NewSchema builds a schema from columns. Duplicate names are allowed at
// construction (products create them), but positional lookup of a
// duplicated name reports an error. The schema keeps cols, so a caller
// that passes a slice (cols...) must not change it afterwards. The name
// index grows with the distinct names, not with len(cols): a snapshot
// header that repeats one name 65,535 times costs one entry.
func NewSchema(cols ...Column) *Schema {
	s := &Schema{cols: cols, pos: make(map[string]int)}
	for i, c := range cols {
		if _, dup := s.pos[c.Name]; dup {
			s.pos[c.Name] = -1 // ambiguous
		} else {
			s.pos[c.Name] = i
		}
	}
	return s
}

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.cols) }

// Columns returns a copy of the column list.
func (s *Schema) Columns() []Column { return append([]Column(nil), s.cols...) }

// Column returns the i'th column.
func (s *Schema) Column(i int) Column { return s.cols[i] }

// Lookup resolves an attribute name to its position.
func (s *Schema) Lookup(name string) (int, error) {
	p, ok := s.pos[name]
	if !ok {
		// Allow unqualified lookup of a qualified column ("custId" finding
		// "c.custId") when unambiguous.
		found := -1
		for i, c := range s.cols {
			if suffixMatch(c.Name, name) {
				if found >= 0 {
					return 0, fmt.Errorf("schema: ambiguous attribute %q", name)
				}
				found = i
			}
		}
		if found >= 0 {
			return found, nil
		}
		return 0, fmt.Errorf("schema: no attribute %q in %s", name, s)
	}
	if p < 0 {
		return 0, fmt.Errorf("schema: ambiguous attribute %q", name)
	}
	return p, nil
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

// Qualify returns a schema with every unqualified column name prefixed by
// "alias.".
func (s *Schema) Qualify(alias string) *Schema {
	cols := make([]Column, len(s.cols))
	for i, c := range s.cols {
		name := c.Name
		if i := strings.IndexByte(name, '.'); i >= 0 {
			name = name[i+1:]
		}
		cols[i] = Column{Name: alias + "." + name, Type: c.Type}
	}
	return NewSchema(cols...)
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
