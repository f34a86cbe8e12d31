// Package schema defines the typed values, tuples, and relation schemas
// shared by every layer of the engine: the bag store, the algebra
// evaluator, the differential algorithms, and the SQL front end.
//
// The data model is deliberately the one the paper assumes: flat bags of
// tuples ("no bag-valued attributes", Section 2.1) over a small scalar
// type system with SQL duplicate (multiset) semantics.
package schema

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Type enumerates the scalar types a column may have.
type Type uint8

// The supported scalar types.
const (
	TNull Type = iota // the type of the SQL NULL literal before coercion
	TInt
	TFloat
	TString
	TBool
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case TNull:
		return "NULL"
	case TInt:
		return "INT"
	case TFloat:
		return "FLOAT"
	case TString:
		return "STRING"
	case TBool:
		return "BOOL"
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// Value is a single scalar database value. The zero Value is NULL.
//
// Value is a small immutable struct passed by value; tuples are slices of
// Values. Comparisons follow SQL two-valued semantics for ordering with
// NULL sorting first (the quantifier-free predicate language of the paper
// does not require three-valued logic, and deterministic total order keeps
// bags canonical).
type Value struct {
	typ Type
	i   int64  // TInt, TBool (0/1); TFloat keeps its IEEE 754 bits here
	s   string // TString
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// Int returns an integer value.
func Int(v int64) Value { return Value{typ: TInt, i: v} }

// Float returns a floating-point value.
func Float(v float64) Value { return Value{typ: TFloat, i: int64(math.Float64bits(v))} }

// float returns a TFloat's payload.
func (v Value) float() float64 { return math.Float64frombits(uint64(v.i)) }

// String_ returns a string value. (Named with a trailing underscore to
// avoid colliding with the fmt.Stringer method on Value.)
func String_(v string) Value { return Value{typ: TString, s: v} }

// Str is a short alias for String_.
func Str(v string) Value { return String_(v) }

// Bool returns a boolean value.
func Bool(v bool) Value {
	var i int64
	if v {
		i = 1
	}
	return Value{typ: TBool, i: i}
}

// Type reports the value's type. NULL values report TNull.
func (v Value) Type() Type { return v.typ }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.typ == TNull }

// AsInt returns the integer payload. It panics unless Type is TInt.
func (v Value) AsInt() int64 {
	if v.typ != TInt {
		panic(fmt.Sprintf("schema: AsInt on %s value", v.typ))
	}
	return v.i
}

// AsFloat returns the numeric payload widened to float64. It panics
// unless the value is numeric.
func (v Value) AsFloat() float64 {
	switch v.typ {
	case TInt:
		return float64(v.i)
	case TFloat:
		return v.float()
	}
	panic(fmt.Sprintf("schema: AsFloat on %s value", v.typ))
}

// AsString returns the string payload. It panics unless Type is TString.
func (v Value) AsString() string {
	if v.typ != TString {
		panic(fmt.Sprintf("schema: AsString on %s value", v.typ))
	}
	return v.s
}

// AsBool returns the boolean payload. It panics unless Type is TBool.
func (v Value) AsBool() bool {
	if v.typ != TBool {
		panic(fmt.Sprintf("schema: AsBool on %s value", v.typ))
	}
	return v.i != 0
}

// Numeric reports whether the value is TInt or TFloat.
func (v Value) Numeric() bool { return v.typ == TInt || v.typ == TFloat }

// Compare totally orders values: NULL < BOOL < numbers < strings, with
// numbers compared cross-type (INT vs FLOAT) by numeric value. It returns
// -1, 0, or +1.
func (v Value) Compare(o Value) int {
	vr, or := rank(v.typ), rank(o.typ)
	if vr != or {
		if vr < or {
			return -1
		}
		return 1
	}
	switch v.typ {
	case TNull:
		return 0
	case TBool:
		return cmpInt(v.i, o.i)
	case TInt:
		if o.typ == TInt {
			return cmpInt(v.i, o.i)
		}
		return cmpFloat(float64(v.i), o.float())
	case TFloat:
		if o.typ == TInt {
			return cmpFloat(v.float(), float64(o.i))
		}
		return cmpFloat(v.float(), o.float())
	case TString:
		return strings.Compare(v.s, o.s)
	}
	panic("schema: unreachable compare")
}

// rank groups comparable types: numerics share a rank so INT 1 == FLOAT 1.0.
func rank(t Type) int {
	switch t {
	case TNull:
		return 0
	case TBool:
		return 1
	case TInt, TFloat:
		return 2
	case TString:
		return 3
	}
	return 4
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case math.IsNaN(a) && !math.IsNaN(b):
		return -1
	case !math.IsNaN(a) && math.IsNaN(b):
		return 1
	}
	return 0
}

// Equal reports whether two values are equal under Compare semantics.
func (v Value) Equal(o Value) bool { return v.Compare(o) == 0 }

// String renders the value as a SQL literal.
func (v Value) String() string {
	switch v.typ {
	case TNull:
		return "NULL"
	case TInt:
		return strconv.FormatInt(v.i, 10)
	case TFloat:
		return strconv.FormatFloat(v.float(), 'g', -1, 64)
	case TString:
		return strconv.Quote(v.s)
	case TBool:
		if v.i != 0 {
			return "TRUE"
		}
		return "FALSE"
	}
	return "?"
}

// appendKey appends a canonical, self-delimiting encoding of the value to
// dst. Two values encode identically iff Compare reports them equal
// (INT 1 and FLOAT 1.0 share an encoding on purpose).
func (v Value) appendKey(dst []byte) []byte {
	switch v.typ {
	case TNull:
		return append(dst, 'n')
	case TBool:
		if v.i != 0 {
			return append(dst, 'b', '1')
		}
		return append(dst, 'b', '0')
	case TInt:
		dst = append(dst, 'i')
		return strconv.AppendInt(dst, v.i, 10)
	case TFloat:
		f := v.float()
		if f == 0 {
			f = 0 // canonicalize -0.0 so it keys like +0.0 (Compare treats them equal)
		}
		if f == math.Trunc(f) && f >= math.MinInt64 && f < math.MaxInt64 {
			// Encode integer-valued floats through int64 so that INT k and
			// FLOAT k collide, matching Compare — and so that integer keys
			// (the common case) pay AppendInt, not shortest-float ryu.
			dst = append(dst, 'i')
			return strconv.AppendInt(dst, int64(f), 10)
		}
		dst = append(dst, 'f')
		return strconv.AppendFloat(dst, f, 'g', -1, 64)
	case TString:
		dst = append(dst, 's')
		dst = strconv.AppendInt(dst, int64(len(v.s)), 10)
		dst = append(dst, ':')
		return append(dst, v.s...)
	}
	panic("schema: unreachable appendKey")
}
