package schema

import (
	"encoding/binary"
	"math"
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

// FuzzValue holds the packed Value to the reference layout on tuples of
// arbitrary values: every accessor, rendering and key encoding agree
// with refValue; Compare agrees with it, is antisymmetric, and reports
// equal exactly when the keys are equal; and a key restricted to some
// positions is the key of the projection.
func FuzzValue(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 6, 0, 6, 1, 0, 6, 3, 'a', 0, 'b'})                                // NULL, "", "\x00", "a\x00b"
	f.Add([]byte{1, 1, 0, 0, 0, 0, 0, 32, 0, 2, 0, 0, 0, 0, 0, 0, 64, 67})            // INT 2^53+1, FLOAT 2^53
	f.Add([]byte{2, 0, 0, 0, 0, 0, 0, 0, 128, 2, 1, 0, 0, 0, 0, 0, 248, 127, 3, 4})   // -0.0, a NaN, INT 3 vs FLOAT 2
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 128, 2, 0, 0, 0, 0, 0, 0, 224, 195, 5, 131}) // MinInt64 as INT and as FLOAT, BOOLs

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
	})
}
