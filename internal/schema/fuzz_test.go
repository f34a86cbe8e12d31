package schema

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"
)

// refsFromBytes decodes the input into a tuple's worth of mixed-type
// values: a tag byte, then 8 bytes of INT or of FLOAT bits (any bit
// pattern: NaNs, infinities, -0.0), one byte of BOOL, or a length byte
// and that many bytes of STRING (any bytes, NUL included). Integers and
// floats are also drawn small, so that values collide.
func refsFromBytes(data []byte) []refValue {
	var refs []refValue
	for len(data) > 0 && len(refs) < 16 {
		tag := data[0]
		data = data[1:]
		word := func() int64 {
			var w [8]byte
			data = data[copy(w[:], data):]
			return int64(binary.LittleEndian.Uint64(w[:]))
		}
		switch tag % 7 {
		case 0:
			refs = append(refs, refValue{typ: TNull})
		case 1:
			refs = append(refs, refValue{typ: TInt, i: word()})
		case 2:
			refs = append(refs, refValue{typ: TFloat, i: word()})
		case 3:
			refs = append(refs, refValue{typ: TInt, i: int64(int8(tag))})
		case 4:
			refs = append(refs, refValue{typ: TFloat, i: int64(math.Float64bits(float64(int8(tag)) / 2))})
		case 5:
			refs = append(refs, refValue{typ: TBool, i: int64(tag >> 7)})
		case 6:
			n := 0
			if len(data) > 0 {
				n = min(int(data[0]), len(data)-1)
				data = data[1:]
			}
			refs = append(refs, refValue{typ: TString, s: string(data[:n])})
			data = data[n:]
		}
	}
	return refs
}

// words encodes ks for refsFromBytes: each behind the tag (1 INT, 2 FLOAT
// bits) that reads it as a full 8-byte word.
func words(tag byte, ks ...int64) []byte {
	var data []byte
	for _, k := range ks {
		data = binary.LittleEndian.AppendUint64(append(data, tag), uint64(k))
	}
	return data
}

// FuzzValue holds the packed Value to the reference layout on tuples of
// arbitrary values: every accessor, rendering and key encoding agree
// with refValue; Compare agrees with it, is antisymmetric, and reports
// equal exactly when the keys are equal, and Equal agrees with Compare;
// equal keys hash equal, also
// for a twin of the tuple built another way (twin); and a key
// restricted to some positions is the key of the projection.
func FuzzValue(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 6, 0, 6, 1, 0, 6, 3, 'a', 0, 'b'})                                // NULL, "", "\x00", "a\x00b"
	f.Add([]byte{1, 1, 0, 0, 0, 0, 0, 32, 0, 2, 0, 0, 0, 0, 0, 0, 64, 67})            // INT 2^53+1, FLOAT 2^53
	f.Add([]byte{2, 0, 0, 0, 0, 0, 0, 0, 128, 2, 1, 0, 0, 0, 0, 0, 248, 127, 3, 4})   // -0.0, a NaN, INT 3 vs FLOAT 2
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 128, 2, 0, 0, 0, 0, 0, 0, 224, 195, 5, 131}) // MinInt64 as INT and as FLOAT, BOOLs
	// Where the key's zigzag varint grows a byte, and where the INT path
	// stops: FLOAT 2^63 is keyed by its bits, FLOAT -2^63 as INT MinInt64.
	f.Add(words(1, 63, -63, 64, -64, -65, 65))
	f.Add(words(1, 8191, -8191, 8192, -8192, -8193, 8193))
	f.Add(append(words(1, math.MinInt64, math.MaxInt64),
		words(2, int64(math.Float64bits(0x1p63)), int64(math.Float64bits(-0x1p63)),
			int64(math.Float64bits(math.Nextafter(0x1p63, 0))))...))

	f.Fuzz(func(t *testing.T, data []byte) {
		refs := refsFromBytes(data)
		checkAgainstRef(t, refs)

		tu := make(Tuple, len(refs))
		for i, r := range refs {
			tu[i] = r.value()
		}
		var positions []int // reversed, every second column twice
		for i := len(tu) - 1; i >= 0; i-- {
			positions = append(positions, i)
			if i%2 == 0 {
				positions = append(positions, i)
			}
		}
		if got, want := string(tu.AppendKeyAt(nil, positions)), tu.Project(positions).Key(); got != want {
			t.Fatalf("AppendKeyAt(%v) of %v = %q, Project().Key() = %q", positions, tu, got, want)
		}
		if got, want := tu.Clone().Concat(tu).Key(), tu.Key()+tu.Key(); got != want {
			t.Fatalf("Concat key of %v = %q, want the halves' keys joined, %q", tu, got, want)
		}

		// A bag keys a tuple by Hash and takes a hit only on Compare == 0:
		// the tuples Compare reports equal must hash equal.
		tw := make(Tuple, len(tu))
		for i, v := range tu {
			tw[i] = twin(v)
		}
		if tw.Compare(tu) != 0 || !tw.Equal(tu) || tw.Key() != tu.Key() || tw.Hash() != tu.Hash() {
			t.Fatalf("%v and its twin %v: Compare %d, keys %q and %q, hashes %x and %x",
				tu, tw, tw.Compare(tu), tu.Key(), tw.Key(), tu.Hash(), tw.Hash())
		}
		for i := range tu {
			for j := range tu {
				for _, b := range []Tuple{tu[j : j+1], tw[j : j+1]} {
					a := tu[i : i+1]
					if a.Equal(b) != (a.Compare(b) == 0) {
						t.Fatalf("%v and %v: Equal %v, Compare %d", a, b, a.Equal(b), a.Compare(b))
					}
					if a.Key() == b.Key() && a.Hash() != b.Hash() {
						t.Fatalf("%v and %v share the key %q but hash %x and %x", a, b, a.Key(), a.Hash(), b.Hash())
					}
				}
			}
		}
	})
}

// twin returns a value Compare reports equal to v, built another way
// where there is one: an INT k as FLOAT k when a float64 holds k
// exactly, an integral FLOAT as its INT, -0.0 as +0.0 and back, a NaN
// with another payload, a string in other bytes.
func twin(v Value) Value {
	switch v.Type() {
	case TInt:
		if f := float64(v.AsInt()); f < math.MaxInt64 && int64(f) == v.AsInt() {
			return Float(f)
		}
	case TFloat:
		switch f := v.AsFloat(); {
		case math.IsNaN(f):
			other := math.Float64frombits(0xfff0000000000001) // negative, signaling, payload 1
			if math.Float64bits(f) == math.Float64bits(other) {
				other = math.NaN()
			}
			return Float(other)
		case f == 0:
			return Float(-f)
		case f == math.Trunc(f) && f >= math.MinInt64 && f < math.MaxInt64:
			return Int(int64(f))
		}
	case TString:
		return Str(strings.Clone(v.AsString()))
	}
	return v
}
