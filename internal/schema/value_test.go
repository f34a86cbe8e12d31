package schema

import (
	"bytes"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"strings"
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

// TestValueSize pins the layout: one tag-or-data pointer and one payload
// word — 16 bytes, so a 4-column tuple sits in the 64-byte size class.
// Every float must survive the round trip through the integer word bit
// for bit.
func TestValueSize(t *testing.T) {
	if got := reflect.TypeOf(Value{}).Size(); got != 16 {
		t.Fatalf("sizeof(Value) = %d, want 16", got)
	}
	const rows = 1000
	keep := make([]Tuple, rows)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := range keep {
		keep[i] = Row(1, 2, 3, 4.5)
	}
	runtime.ReadMemStats(&m1)
	if got := (m1.TotalAlloc - m0.TotalAlloc) / rows; got != 64 {
		t.Errorf("a 4-column Row allocates %d bytes, want 64", got)
	}
	runtime.KeepAlive(keep)
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

// refValue is the plain three-field layout — a type tag, a payload word,
// a string header; 32 bytes — with the semantics Value must have. It is
// the oracle the packed layout is checked against, here and in FuzzValue.
type refValue struct {
	typ Type
	i   int64 // TInt, TBool (0/1); TFloat's IEEE 754 bits
	s   string
}

// value builds the Value r describes, through the public constructors.
func (r refValue) value() Value {
	switch r.typ {
	case TInt:
		return Int(r.i)
	case TFloat:
		return Float(r.float())
	case TString:
		return Str(r.s)
	case TBool:
		return Bool(r.i != 0)
	}
	return Null()
}

func (r refValue) float() float64 { return math.Float64frombits(uint64(r.i)) }

// compare states the order without Value's shortcuts: numbers by exact
// value (math/big), NaN below every other number.
func (r refValue) compare(o refValue) int {
	if vr, or := rank(r.typ), rank(o.typ); vr != or {
		if vr < or {
			return -1
		}
		return 1
	}
	switch r.typ {
	case TNull:
		return 0
	case TBool:
		return cmpInt(r.i, o.i)
	case TString:
		return strings.Compare(r.s, o.s)
	}
	rn, on := r.typ == TFloat && math.IsNaN(r.float()), o.typ == TFloat && math.IsNaN(o.float())
	switch {
	case rn && on:
		return 0
	case rn:
		return -1
	case on:
		return 1
	}
	exact := func(x refValue) *big.Float {
		if x.typ == TInt {
			return new(big.Float).SetInt64(x.i)
		}
		return big.NewFloat(x.float())
	}
	return exact(r).Cmp(exact(o))
}

// appendKey writes the key layout out longhand: a tag byte; an INT, or
// a FLOAT that math/big holds exactly as an int64, as a zigzag varint;
// any other FLOAT as its 8 bits, least significant byte first, with
// every NaN written as math.NaN(); a STRING as a varint length and its
// bytes.
func (r refValue) appendKey(dst []byte) []byte {
	varint := func(dst []byte, u uint64) []byte {
		for ; u >= 0x80; u >>= 7 {
			dst = append(dst, byte(u)|0x80)
		}
		return append(dst, byte(u))
	}
	zigzag := func(k int64) uint64 { return uint64(k)<<1 ^ uint64(k>>63) }
	switch r.typ {
	case TNull:
		return append(dst, 'n')
	case TBool:
		return append(dst, 'b', byte(r.i))
	case TInt:
		return varint(append(dst, 'i'), zigzag(r.i))
	case TFloat:
		f := r.float()
		if !math.IsNaN(f) {
			if k, acc := big.NewFloat(f).Int64(); acc == big.Exact {
				return varint(append(dst, 'i'), zigzag(k))
			}
		}
		bits := r.i
		if math.IsNaN(f) {
			bits = int64(math.Float64bits(math.NaN()))
		}
		dst = append(dst, 'f')
		for i := 0; i < 8; i++ {
			dst = append(dst, byte(bits>>(8*i)))
		}
		return dst
	}
	return append(varint(append(dst, 's'), uint64(len(r.s))), r.s...)
}

func (r refValue) String() string {
	switch r.typ {
	case TNull:
		return "NULL"
	case TInt:
		return strconv.FormatInt(r.i, 10)
	case TFloat:
		return strconv.FormatFloat(r.float(), 'g', -1, 64)
	case TString:
		return strconv.Quote(r.s)
	}
	if r.i != 0 {
		return "TRUE"
	}
	return "FALSE"
}

// try runs f and returns what it returned, or "panic" if it panicked.
func try(f func() any) (out any) {
	defer func() {
		if recover() != nil {
			out = "panic"
		}
	}()
	return f()
}

// agreesWithRef reports how v departs from the oracle r on everything a
// single value answers: type, every accessor (the panics included),
// rendering and key encoding. "" means it does not.
func agreesWithRef(v Value, r refValue) string {
	if v.Type() != r.typ || v.IsNull() != (r.typ == TNull) || v.Numeric() != (r.typ == TInt || r.typ == TFloat) {
		return fmt.Sprintf("Type %v IsNull %v Numeric %v, want type %v", v.Type(), v.IsNull(), v.Numeric(), r.typ)
	}
	want := map[string]any{"AsInt": "panic", "AsFloat": "panic", "AsString": "panic", "AsBool": "panic"}
	switch r.typ {
	case TInt:
		want["AsInt"], want["AsFloat"] = r.i, math.Float64bits(float64(r.i))
	case TFloat:
		want["AsFloat"] = uint64(r.i)
	case TString:
		want["AsString"] = r.s
	case TBool:
		want["AsBool"] = r.i != 0
	}
	got := map[string]any{
		"AsInt":    try(func() any { return v.AsInt() }),
		"AsFloat":  try(func() any { return math.Float64bits(v.AsFloat()) }),
		"AsString": try(func() any { return v.AsString() }),
		"AsBool":   try(func() any { return v.AsBool() }),
	}
	for name := range want {
		if got[name] != want[name] {
			return fmt.Sprintf("%s = %v, want %v", name, got[name], want[name])
		}
	}
	if v.String() != r.String() {
		return fmt.Sprintf("String = %s, want %s", v.String(), r.String())
	}
	if k, rk := v.appendKey(nil), r.appendKey(nil); !bytes.Equal(k, rk) {
		return fmt.Sprintf("key = %q, want %q", k, rk)
	}
	return ""
}

// edgeRefs is where a packed layout could go wrong: the empty string
// beside NULL, strings with NUL bytes and past the 128-byte key scratch,
// the floats with odd bits, the integer extremes, and INT k beside
// FLOAT k.
func edgeRefs() []refValue {
	fl := func(f float64) refValue { return refValue{typ: TFloat, i: int64(math.Float64bits(f))} }
	return []refValue{
		{typ: TNull},
		{typ: TString, s: ""},
		{typ: TString, s: "\x00"},
		{typ: TString, s: "a\x00b"},
		{typ: TString, s: "n"},
		{typ: TString, s: strings.Repeat("long", 50)},
		{typ: TBool, i: 0}, {typ: TBool, i: 1},
		{typ: TInt, i: 0}, {typ: TInt, i: 1}, {typ: TInt, i: -1}, {typ: TInt, i: 7},
		{typ: TInt, i: math.MinInt64}, {typ: TInt, i: math.MaxInt64},
		{typ: TInt, i: 1 << 53}, {typ: TInt, i: 1<<53 + 1}, fl(1 << 53), // float64(2^53+1) rounds to 2^53
		fl(0), fl(math.Copysign(0, -1)), fl(7), fl(7.5), fl(math.NaN()), fl(math.Inf(1)), fl(math.Inf(-1)),
		fl(math.MinInt64), fl(math.MaxInt64), fl(math.SmallestNonzeroFloat64),
	}
}

// randomRef draws from a small domain with many collisions, the edge set
// mixed in.
func randomRef(r *rand.Rand) refValue {
	switch r.Intn(6) {
	case 0:
		return refValue{typ: TNull}
	case 1:
		return refValue{typ: TInt, i: int64(r.Intn(7) - 3)}
	case 2:
		return refValue{typ: TFloat, i: int64(math.Float64bits(float64(r.Intn(13)-6) / 2))}
	case 3:
		return refValue{typ: TString, s: strings.Repeat(string(rune('a'+r.Intn(3))), r.Intn(4))}
	case 4:
		return refValue{typ: TBool, i: int64(r.Intn(2))}
	}
	edge := edgeRefs()
	return edge[r.Intn(len(edge))]
}

// checkAgainstRef holds every value of refs, and every pair, to the
// oracle; the pairs also to Compare's own laws.
func checkAgainstRef(t *testing.T, refs []refValue) {
	t.Helper()
	vals := make([]Value, len(refs))
	for i, r := range refs {
		vals[i] = r.value()
		if msg := agreesWithRef(vals[i], r); msg != "" {
			t.Fatalf("%#v: %s", r, msg)
		}
	}
	for i, a := range vals {
		for j, b := range vals {
			c := a.Compare(b)
			if want := refs[i].compare(refs[j]); c != want {
				t.Fatalf("Compare(%v, %v) = %d, want %d", a, b, c, want)
			}
			if c != -b.Compare(a) {
				t.Fatalf("Compare(%v, %v) = %d is not antisymmetric", a, b, c)
			}
			if a.Equal(b) != (c == 0) {
				t.Fatalf("Equal(%v, %v) disagrees with Compare = %d", a, b, c)
			}
			if sameKey := bytes.Equal(a.appendKey(nil), b.appendKey(nil)); sameKey != (c == 0) {
				t.Fatalf("Compare(%v, %v) = %d, keys equal: %v", a, b, c, sameKey)
			}
		}
	}
}

func TestValueMatchesReferenceLayout(t *testing.T) {
	checkAgainstRef(t, edgeRefs())
	r := rand.New(rand.NewSource(1))
	for round := 0; round < 200; round++ {
		refs := make([]refValue, 12)
		for i := range refs {
			refs[i] = randomRef(r)
		}
		checkAgainstRef(t, refs)
	}
}

// TestEmptyStringIsNotNull: "" has no bytes to point at and takes a tag
// address instead; it must stay a string, distinct from NULL.
func TestEmptyStringIsNotNull(t *testing.T) {
	empty := Str("")
	if empty.IsNull() || empty.Type() != TString || empty.AsString() != "" {
		t.Fatalf(`Str("") = %v (type %v)`, empty, empty.Type())
	}
	if empty.Equal(Null()) || NewTuple(empty).Key() == NewTuple(Null()).Key() {
		t.Fatal(`Str("") and NULL compare or key alike`)
	}
	heap := string(make([]byte, 8))[:0] // an empty string whose data pointer is not nil
	if v := Str(heap); !v.Equal(empty) || v.AsString() != "" || v.Type() != TString {
		t.Fatalf("an empty slice of a heap string = %v (type %v)", v, v.Type())
	}
	if got := Row("", nil).String(); got != `["", NULL]` {
		t.Fatalf("Row(\"\", nil) = %s", got)
	}
}

var gcPressure [][]byte

// TestValueKeepsItsStringAlive: a Value holds its string by the data
// pointer alone. Build values from heap strings nothing else refers to,
// collect twice while allocating blocks of the same sizes filled with
// other bytes, and read every string back.
func TestValueKeepsItsStringAlive(t *testing.T) {
	want := func(i int) []byte { return bytes.Repeat([]byte{byte('a' + i%26)}, 1+i%300) }
	vals := make([]Value, 2000)
	for i := range vals {
		vals[i] = Str(string(want(i)))
	}
	for round := 0; round < 2; round++ {
		gcPressure = gcPressure[:0]
		for i := range vals {
			gcPressure = append(gcPressure, bytes.Repeat([]byte{0xFF}, 1+i%300))
		}
		runtime.GC()
	}
	gcPressure = nil
	for i, v := range vals {
		if got := v.AsString(); got != string(want(i)) {
			t.Fatalf("value %d reads %q after GC, want %q", i, got, want(i))
		}
	}
}
