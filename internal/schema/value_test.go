package schema

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	if !Null().IsNull() {
		t.Fatal("Null should be null")
	}
	if got := Int(42).AsInt(); got != 42 {
		t.Fatalf("AsInt = %d", got)
	}
	if got := Float(2.5).AsFloat(); got != 2.5 {
		t.Fatalf("AsFloat = %g", got)
	}
	if got := Int(7).AsFloat(); got != 7 {
		t.Fatalf("int AsFloat = %g", got)
	}
	if got := Str("hi").AsString(); got != "hi" {
		t.Fatalf("AsString = %q", got)
	}
	if !Bool(true).AsBool() || Bool(false).AsBool() {
		t.Fatal("AsBool wrong")
	}
	if !Int(1).Numeric() || !Float(1).Numeric() || Str("x").Numeric() {
		t.Fatal("Numeric wrong")
	}
}

func TestValueAccessorPanics(t *testing.T) {
	cases := []func(){
		func() { Str("x").AsInt() },
		func() { Int(1).AsString() },
		func() { Str("x").AsFloat() },
		func() { Int(1).AsBool() },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestValueCompareTotalOrder(t *testing.T) {
	ordered := []Value{
		Null(),
		Bool(false),
		Bool(true),
		Int(-10),
		Float(-1.5),
		Int(0),
		Float(0.5),
		Int(1),
		Int(2),
		Float(2.5),
		Str(""),
		Str("a"),
		Str("b"),
	}
	for i := range ordered {
		for j := range ordered {
			got := ordered[i].Compare(ordered[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got != want {
				t.Errorf("Compare(%v,%v) = %d, want %d", ordered[i], ordered[j], got, want)
			}
		}
	}
}

func TestValueCrossTypeNumericEquality(t *testing.T) {
	if Int(3).Compare(Float(3.0)) != 0 {
		t.Fatal("INT 3 should equal FLOAT 3.0")
	}
	if !Int(3).Equal(Float(3)) {
		t.Fatal("Equal should agree with Compare")
	}
	// Their keys must collide too, or bags would double-count.
	a := NewTuple(Int(3)).Key()
	b := NewTuple(Float(3)).Key()
	if a != b {
		t.Fatalf("keys differ: %q vs %q", a, b)
	}
}

func TestValueKeyInjective(t *testing.T) {
	vals := []Value{
		Null(), Bool(false), Bool(true),
		Int(0), Int(1), Int(-1), Int(math.MaxInt64), Int(math.MinInt64),
		Float(0.5), Float(-0.5), Float(1e100),
		Str(""), Str("a"), Str("ab"), Str("a|b"), Str("n"),
	}
	seen := map[string]Value{}
	for _, v := range vals {
		k := NewTuple(v).Key()
		if prev, ok := seen[k]; ok && !prev.Equal(v) {
			t.Errorf("key collision: %v and %v -> %q", prev, v, k)
		}
		seen[k] = v
	}
}

func TestValueString(t *testing.T) {
	cases := map[string]Value{
		"NULL":  Null(),
		"42":    Int(42),
		"2.5":   Float(2.5),
		`"hi"`:  Str("hi"),
		"TRUE":  Bool(true),
		"FALSE": Bool(false),
		"-7":    Int(-7),
	}
	for want, v := range cases {
		if got := v.String(); got != want {
			t.Errorf("String(%#v) = %q, want %q", v, got, want)
		}
	}
}

func TestTypeString(t *testing.T) {
	for typ, want := range map[Type]string{
		TNull: "NULL", TInt: "INT", TFloat: "FLOAT", TString: "STRING", TBool: "BOOL",
	} {
		if got := typ.String(); got != want {
			t.Errorf("Type.String(%d) = %q, want %q", typ, got, want)
		}
	}
}

// randomValue generates an arbitrary value for property tests.
func randomValue(r *rand.Rand) Value {
	switch r.Intn(5) {
	case 0:
		return Null()
	case 1:
		return Int(int64(r.Intn(21) - 10))
	case 2:
		return Float(float64(r.Intn(21)-10) / 2)
	case 3:
		return Str(string(rune('a' + r.Intn(5))))
	default:
		return Bool(r.Intn(2) == 0)
	}
}

// Generate implements quick.Generator for Value.
func (Value) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(randomValue(r))
}

func TestCompareProperties(t *testing.T) {
	// Antisymmetry: Compare(a,b) == -Compare(b,a).
	anti := func(a, b Value) bool { return a.Compare(b) == -b.Compare(a) }
	if err := quick.Check(anti, nil); err != nil {
		t.Error(err)
	}
	// Reflexivity.
	refl := func(a Value) bool { return a.Compare(a) == 0 }
	if err := quick.Check(refl, nil); err != nil {
		t.Error(err)
	}
	// Transitivity on a sampled triple.
	trans := func(a, b, c Value) bool {
		vs := []Value{a, b, c}
		// sort the 3 by Compare and check consistency
		for i := 0; i < 3; i++ {
			for j := i + 1; j < 3; j++ {
				if vs[i].Compare(vs[j]) > 0 {
					vs[i], vs[j] = vs[j], vs[i]
				}
			}
		}
		return vs[0].Compare(vs[1]) <= 0 && vs[1].Compare(vs[2]) <= 0 && vs[0].Compare(vs[2]) <= 0
	}
	if err := quick.Check(trans, nil); err != nil {
		t.Error(err)
	}
	// Key agreement: equal iff same key.
	key := func(a, b Value) bool {
		ka := NewTuple(a).Key()
		kb := NewTuple(b).Key()
		return (a.Compare(b) == 0) == (ka == kb)
	}
	if err := quick.Check(key, nil); err != nil {
		t.Error(err)
	}
}

func TestNegativeZeroKeysLikeZero(t *testing.T) {
	pos := NewTuple(Float(0)).Key()
	neg := NewTuple(Float(math.Copysign(0, -1))).Key()
	if pos != neg {
		t.Fatalf("-0.0 keys differently from +0.0: %q vs %q", neg, pos)
	}
	if Float(0).Compare(Float(math.Copysign(0, -1))) != 0 {
		t.Fatal("-0.0 should compare equal to +0.0")
	}
}

// TestValueSize pins the layout: a type tag, one 8-byte word shared by
// INT, BOOL and the FLOAT's bits, and the string header — 32 bytes, so
// a 4-column tuple sits in the 128-byte size class. Every float must
// survive the round trip through the integer word bit for bit.
func TestValueSize(t *testing.T) {
	if got := reflect.TypeOf(Value{}).Size(); got != 32 {
		t.Fatalf("sizeof(Value) = %d, want 32", got)
	}
	for _, f := range []float64{0, math.Copysign(0, -1), 1.5, -2.25, math.MaxFloat64,
		math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN()} {
		if got := Float(f).AsFloat(); math.Float64bits(got) != math.Float64bits(f) {
			t.Errorf("Float(%v).AsFloat() = %v", f, got)
		}
	}
	if got := Float(2.5).String(); got != "2.5" {
		t.Errorf("Float(2.5).String() = %q", got)
	}
}
