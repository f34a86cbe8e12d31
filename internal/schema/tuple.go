package schema

import "strings"

// Tuple is one row: a fixed-width sequence of values. Tuples are treated
// as immutable once placed in a bag; callers that mutate must Clone first.
type Tuple []Value

// NewTuple builds a tuple from values.
func NewTuple(vs ...Value) Tuple { return Tuple(vs) }

// Row is a convenience constructor converting Go scalars to a Tuple.
// Supported kinds: int, int64, float64, string, bool, nil.
func Row(vs ...any) Tuple {
	t := make(Tuple, len(vs))
	for i, v := range vs {
		switch x := v.(type) {
		case nil:
			t[i] = Null()
		case int:
			t[i] = Int(int64(x))
		case int64:
			t[i] = Int(x)
		case float64:
			t[i] = Float(x)
		case string:
			t[i] = Str(x)
		case bool:
			t[i] = Bool(x)
		case Value:
			t[i] = x
		default:
			panic("schema: Row: unsupported value kind")
		}
	}
	return t
}

// Clone returns a copy of the tuple.
func (t Tuple) Clone() Tuple {
	c := make(Tuple, len(t))
	copy(c, t)
	return c
}

// Equal reports component-wise equality.
func (t Tuple) Equal(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if !t[i].Equal(o[i]) {
			return false
		}
	}
	return true
}

// Compare orders tuples lexicographically; shorter tuples sort first on a
// shared prefix.
func (t Tuple) Compare(o Tuple) int {
	n := len(t)
	if len(o) < n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		if c := t[i].Compare(o[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(t) < len(o):
		return -1
	case len(t) > len(o):
		return 1
	}
	return 0
}

// Concat returns the concatenation t ++ o as a fresh tuple.
func (t Tuple) Concat(o Tuple) Tuple {
	c := make(Tuple, 0, len(t)+len(o))
	c = append(c, t...)
	return append(c, o...)
}

// Project returns the tuple restricted to the given positions.
func (t Tuple) Project(positions []int) Tuple {
	c := make(Tuple, len(positions))
	for i, p := range positions {
		c[i] = t[p]
	}
	return c
}

// String renders the tuple as [v1, v2, ...].
func (t Tuple) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i, v := range t {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteByte(']')
	return b.String()
}
