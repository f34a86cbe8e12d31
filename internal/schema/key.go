package schema

import (
	"encoding/binary"
	"hash/maphash"
	"math"
)

// The canonical key. Every bag keys its tuples by Hash, so this is the
// hottest encoding in the engine; it is binary and prefix-free, and
// nothing persists it (snapshots write values, EachOrdered sorts by
// Compare), so it can change without a format version.
//
//	NULL           'n'
//	BOOL           'b', then 0 or 1
//	INT k          'i', then k as a zigzag varint
//	FLOAT f        as INT f when f is integral and in [-2^63, 2^63);
//	               otherwise 'f', then its 8 bits little-endian, with
//	               -0.0 keyed as +0.0 and every NaN as one NaN
//	STRING s       's', then len(s) as a uvarint, then the bytes of s
//
// Each value's encoding is self-delimiting, so a tuple's key is its
// values' keys back to back, with no separator: two tuples share a key
// exactly when Compare reports them equal (FuzzValue holds this).

// canonicalNaN is the bits every NaN is keyed by: Compare reports all
// NaNs equal, whatever their sign and payload.
var canonicalNaN = math.Float64bits(math.NaN())

// appendKey appends the value's canonical key (see above) to dst. Two
// values encode identically iff Compare reports them equal (INT 1 and
// FLOAT 1.0 share an encoding on purpose).
func (v Value) appendKey(dst []byte) []byte {
	switch v.Type() {
	case TNull:
		return append(dst, 'n')
	case TBool:
		return append(dst, 'b', byte(v.i))
	case TInt:
		return binary.AppendVarint(append(dst, 'i'), v.i)
	case TFloat:
		f := v.float()
		if f == math.Trunc(f) && f >= math.MinInt64 && f < math.MaxInt64 {
			// INT k and FLOAT k share a key, as Compare has them equal;
			// -0.0 lands here and keys as INT 0, like +0.0.
			return binary.AppendVarint(append(dst, 'i'), int64(f))
		}
		bits := math.Float64bits(f)
		if f != f {
			bits = canonicalNaN
		}
		return binary.LittleEndian.AppendUint64(append(dst, 'f'), bits)
	case TString:
		return append(binary.AppendUvarint(append(dst, 's'), uint64(v.i)), v.str()...)
	}
	panic("schema: unreachable appendKey")
}

// Key returns the tuple's canonical key as a string: what Hash hashes,
// and a bag's spill key for a tuple whose hash another holds. Equal
// tuples produce equal keys and vice versa. The encoding is built in a
// stack scratch, so a key of up to 128 bytes costs one allocation — the
// string — where appending from nil pays a doubling series of them; a
// longer key spills to the heap as it would have.
func (t Tuple) Key() string {
	var kb [128]byte
	return string(t.AppendKey(kb[:0]))
}

// keySeed is the process's one seed for tuple hashes: every bag keys its
// entries by Hash, and bags of one process are merged by those hashes.
var keySeed = maphash.MakeSeed()

// Hash returns a 64-bit hash of the tuple's canonical key (AppendKey)
// under one seed per process, so tuples with equal keys — the tuples
// Compare reports equal — hash equal. The key is encoded into a stack
// scratch: a key of up to 128 bytes costs no allocation.
func (t Tuple) Hash() uint64 {
	var kb [128]byte
	return KeyHash(t.AppendKey(kb[:0]))
}

// KeyHash returns the hash of a canonical key encoding: t.Hash() is
// KeyHash(t.AppendKey(nil)), and a concatenation's hash is KeyHash of
// its halves' keys appended.
func KeyHash(k []byte) uint64 { return maphash.Bytes(keySeed, k) }

// AppendKey appends the tuple's canonical key (the same bytes Key
// returns: its values' keys back to back) to dst and returns the
// extended slice. It lets hot paths reuse one buffer across rows
// instead of allocating a string per call.
func (t Tuple) AppendKey(dst []byte) []byte {
	for _, v := range t {
		dst = v.appendKey(dst)
	}
	return dst
}

// AppendKeyAt appends the canonical key of the tuple restricted to the
// given positions — byte-for-byte what t.Project(positions).Key() would
// produce, without materialising the projected tuple.
func (t Tuple) AppendKeyAt(dst []byte, positions []int) []byte {
	for _, p := range positions {
		dst = t[p].appendKey(dst)
	}
	return dst
}
