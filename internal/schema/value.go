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
	"unsafe"
)

// Layout note. This file is the only one in the module that imports
// unsafe (TestUnsafeStaysInValueGo holds it so): a Value is two words,
// and the first is a pointer that is either a type tag or a string's
// bytes. Why that is sound:
//
//   - p holds one of three things: nil (NULL); the address of an element
//     of the package-level tags array (INT, FLOAT, BOOL, and the empty
//     string); or unsafe.StringData(s) of a non-empty string s. Nothing
//     else is ever stored in it, and no uintptr is ever converted back
//     to a pointer — Type only subtracts two addresses.
//   - p is an unsafe.Pointer, so the garbage collector traces it like
//     any other pointer: a Value keeps its string's backing store alive
//     exactly as the string header it replaces did, and a pointer into
//     tags or into a string literal's read-only data is outside the
//     heap and ignored. Strings are immutable, so the bytes under p
//     never change, and tags is never written.
//   - A string's data pointer cannot fall inside tags: tags is its own
//     variable, and the empty string — the one string whose data pointer
//     the language leaves unspecified — is given tags[TString] instead.
//   - unsafe.String(p, i) rebuilds the very header StringData took
//     apart, so it never spans two allocations; `go test -race` turns on
//     checkptr, which checks that at run time, and go vet's unsafeptr
//     pass checks the conversions.
//
// A stored tuple is one pointer too: a bag keeps Ptr of each tuple and
// the arity its tuples share, and rebuilds the tuple with TupleAt(p, n)
// (unsafe.Slice). That is sound for the same reasons:
//
//   - p always comes from Ptr of a tuple of at least n values that is
//     immutable once stored (Tuple's doc), so the n values it names exist
//     and never change.
//   - p points into the tuple's backing array, and an interior pointer
//     keeps the whole array alive, exactly as the slice header did. That
//     array may be a slab many tuples share (a table a snapshot loaded,
//     bag.Build): each tuple is a capped sub-slice of it, its p an
//     interior pointer, and the slab lives while any of them does.
//   - unsafe.Slice(p, n) stays inside the one allocation p came from —
//     a slab is one allocation too, and p's n values end inside it;
//     checkptr (`go test -race`) checks that at run time.
//
// PtrHash reads such a p as a number, to hash a stored tuple by its
// address. Go's heap does not move what it allocates, and a pointer a
// bag stores has escaped to the heap, so the number is the same for as
// long as the tuple lives; it is never turned back into a pointer.
//
// What the layout costs its users: == and reflect.DeepEqual on a Value
// would compare p, that is, string identity and not string contents.
// The first does not compile (Value is declared not comparable), the
// second is kept out of the tree by TestNoDeepEqualOnValues: use
// Compare / Equal.

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
//
// A Value is 16 bytes — half of a {tag, word, string header} struct —
// so a 4-column tuple sits in the 64-byte size class.
type Value struct {
	_ [0]func()      // not comparable: == would compare p, a string's identity (takes no space)
	p unsafe.Pointer // nil, &tags[t], or a non-empty string's bytes (see the layout note above)
	i int64          // TInt, TBool (0/1); TFloat's IEEE 754 bits; TString's length
}

// tags lends its element addresses as type tags: &tags[t] in Value.p
// says "a scalar of type t, payload in i" — for t = TString, the empty
// string. tags[TNull] is not used; NULL is the nil pointer, so the zero
// Value is NULL.
var tags [TBool + 1]byte

func tag(t Type) unsafe.Pointer { return unsafe.Pointer(&tags[t]) }

// Null returns the NULL value.
func Null() Value { return Value{} }

// Int returns an integer value.
func Int(v int64) Value { return Value{p: tag(TInt), i: v} }

// Float returns a floating-point value.
func Float(v float64) Value { return Value{p: tag(TFloat), i: int64(math.Float64bits(v))} }

// float returns a TFloat's payload.
func (v Value) float() float64 { return math.Float64frombits(uint64(v.i)) }

// String_ returns a string value. (Named with a trailing underscore to
// avoid colliding with the fmt.Stringer method on Value.)
func String_(v string) Value {
	if v == "" {
		return Value{p: tag(TString)}
	}
	return Value{p: unsafe.Pointer(unsafe.StringData(v)), i: int64(len(v))}
}

// str returns a TString's payload: the header String_ took apart (for
// the empty string, zero bytes at its tag).
func (v Value) str() string { return unsafe.String((*byte)(v.p), int(v.i)) }

// Ptr returns the address of the tuple's first value, nil for an empty
// tuple: with the tuple's length, all TupleAt needs to rebuild it.
func (t Tuple) Ptr() *Value {
	if len(t) == 0 {
		return nil
	}
	return &t[0]
}

// TupleAt returns the n-value tuple at p, where p is Ptr of an immutable
// tuple of at least n values (see the layout note above). The result's
// capacity is n, so an append to it copies.
func TupleAt(p *Value, n int) Tuple { return unsafe.Slice(p, n) }

// PtrHash hashes the address p holds (see the layout note above) through
// MurmurHash3's 64-bit finalizer, so every bit of the hash depends on
// every bit of the address. (The address times 2⁶⁴/φ alone let heap
// addresses crowd a linear-probing table: half as many probes again.)
func PtrHash(p *Value) uint64 {
	x := uint64(uintptr(unsafe.Pointer(p)))
	x = (x ^ x>>33) * 0xff51afd7ed558ccd
	x = (x ^ x>>33) * 0xc4ceb9fe1a85ec53
	return x ^ x>>33
}

// Str is a short alias for String_.
func Str(v string) Value { return String_(v) }

// Bool returns a boolean value.
func Bool(v bool) Value {
	var i int64
	if v {
		i = 1
	}
	return Value{p: tag(TBool), i: i}
}

// Type reports the value's type. NULL values report TNull.
func (v Value) Type() Type {
	if v.p == nil {
		return TNull
	}
	// One unsigned compare: an address below tags wraps around.
	if off := uintptr(v.p) - uintptr(unsafe.Pointer(&tags)); off < uintptr(len(tags)) {
		return Type(off)
	}
	return TString
}

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.p == nil }

// AsInt returns the integer payload. It panics unless Type is TInt.
func (v Value) AsInt() int64 {
	if v.p != tag(TInt) {
		panic(fmt.Sprintf("schema: AsInt on %s value", v.Type()))
	}
	return v.i
}

// AsFloat returns the numeric payload widened to float64. It panics
// unless the value is numeric.
func (v Value) AsFloat() float64 {
	switch v.p {
	case tag(TInt):
		return float64(v.i)
	case tag(TFloat):
		return v.float()
	}
	panic(fmt.Sprintf("schema: AsFloat on %s value", v.Type()))
}

// AsString returns the string payload. It panics unless Type is TString.
func (v Value) AsString() string {
	if v.Type() != TString {
		panic(fmt.Sprintf("schema: AsString on %s value", v.Type()))
	}
	return v.str()
}

// AsBool returns the boolean payload. It panics unless Type is TBool.
func (v Value) AsBool() bool {
	if v.p != tag(TBool) {
		panic(fmt.Sprintf("schema: AsBool on %s value", v.Type()))
	}
	return v.i != 0
}

// AsIntOK returns an INT's payload and true, or 0 and false for a value
// of any other type. It and AsStringOK are the reads a typed comparison
// kernel branches on, where the As* accessors panic.
func (v Value) AsIntOK() (int64, bool) {
	if v.p != tag(TInt) {
		return 0, false
	}
	return v.i, true
}

// AsStringOK returns a STRING's payload and true, or "" and false for a
// value of any other type.
func (v Value) AsStringOK() (string, bool) {
	if v.Type() != TString {
		return "", false
	}
	return v.str(), true
}

// Numeric reports whether the value is TInt or TFloat.
func (v Value) Numeric() bool { return v.p == tag(TInt) || v.p == tag(TFloat) }

// Compare totally orders values: NULL < BOOL < numbers < strings, with
// numbers compared cross-type (INT vs FLOAT) by numeric value. It returns
// -1, 0, or +1. Two INTs and two STRINGs, the common pairs, are
// compared before the ranks are.
func (v Value) Compare(o Value) int {
	if v.p == tag(TInt) && o.p == tag(TInt) {
		return cmpInt(v.i, o.i)
	}
	vt, ot := v.Type(), o.Type()
	if vt == TString && ot == TString {
		return strings.Compare(v.str(), o.str())
	}
	if vr, or := rank(vt), rank(ot); vr != or {
		if vr < or {
			return -1
		}
		return 1
	}
	switch vt {
	case TNull:
		return 0
	case TBool:
		return cmpInt(v.i, o.i)
	case TInt: // against a FLOAT: two INTs returned above
		return cmpIntFloat(v.i, o.float())
	case TFloat:
		if ot == TInt {
			return -cmpIntFloat(o.i, v.float())
		}
		return cmpFloat(v.float(), o.float())
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

// cmpIntFloat compares an INT with a FLOAT exactly. float64(i) rounds once
// |i| passes 2^53: INT 2^53+1 would equal FLOAT 2^53 and, through it,
// INT 2^53 — not an order, and not what the keys say.
func cmpIntFloat(i int64, f float64) int {
	switch {
	case math.IsNaN(f), f < math.MinInt64: // NaN sorts below every number
		return 1
	case f >= math.MaxInt64: // the constant converts to 2^63, above every int64
		return -1
	}
	whole := math.Floor(f) // in [-2^63, 2^63): int64(whole) is exact
	if c := cmpInt(i, int64(whole)); c != 0 {
		return c
	}
	if f > whole {
		return -1
	}
	return 0
}

// Equal reports whether two values are equal under Compare semantics.
// Two values of the same words are: the same tag and payload, or the
// same string bytes — what a bag's hash hit on an INT column finds.
func (v Value) Equal(o Value) bool { return v.p == o.p && v.i == o.i || v.Compare(o) == 0 }

// String renders the value as a SQL literal.
func (v Value) String() string {
	switch v.Type() {
	case TNull:
		return "NULL"
	case TInt:
		return strconv.FormatInt(v.i, 10)
	case TFloat:
		return strconv.FormatFloat(v.float(), 'g', -1, 64)
	case TString:
		return strconv.Quote(v.str())
	case TBool:
		if v.i != 0 {
			return "TRUE"
		}
		return "FALSE"
	}
	return "?"
}
