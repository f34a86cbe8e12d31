package bag

import (
	"fmt"
	"strings"

	"dvm/internal/schema"
)

// Build's chunk sizes. A slab is sized in values, so a wide row and a
// narrow one cost the same bytes per slab. Slabs and arena chunks grow
// geometrically from their minimum to their maximum, and none is larger
// than the rows still to come need: a forged row count costs chunks in
// proportion to the rows that actually arrive, and an honest table's
// last slab has no unused tail.
const (
	slabMin  = 1 << 10 // values
	slabMax  = 1 << 16 // values: 1 MiB
	arenaMin = 1 << 12 // bytes
	arenaMax = 1 << 16 // bytes
	// maxPresize caps the map pre-sized from Build's untrusted row count
	// at a few MiB; a larger table grows from there.
	maxPresize = 1 << 15
)

// Build returns a bag of rows distinct tuples of arity values each, all
// arriving at once: a snapshot's table. fill decodes one row into t
// (arity NULLs to overwrite, capacity arity) and returns its
// multiplicity, which must be positive; an error from fill is Build's.
// A row equal to an earlier one is an error too. rows is untrusted:
// what Build allocates grows with the rows fill decodes, and the map is
// pre-sized (for at most maxPresize rows) only once the first arrives.
//
// The rows cost no allocation of their own. Each is decoded straight
// into a slab shared by its neighbours, as a capped sub-slice, and its
// key is written once into an append-only arena chunk, of which the bag
// keeps a substring. A slab or a chunk is freed with the last live row
// it holds: a deleted row pins its values and its key until then, so a
// loaded bag holds at most the bytes it was decoded into.
func Build(arity, rows int, fill func(t schema.Tuple) (int, error)) (*Bag, error) {
	if rows < 1 {
		return New(), nil
	}
	var (
		b     *Bag
		slab  []schema.Value
		slabs int // slabs allocated so far
		keys  arena
		kb    [128]byte
		key   = kb[:0]
	)
	for left := rows; left > 0; left-- {
		if len(slab) < arity {
			perSlab := max(min(slabMin<<min(slabs, 6), slabMax)/arity, 1) // rows
			slab = make([]schema.Value, min(perSlab, left)*arity)
			slabs++
		}
		t := schema.Tuple(slab[:arity:arity])
		slab = slab[arity:]
		n, err := fill(t)
		switch {
		case err != nil:
			return nil, err
		case n < 1:
			return nil, fmt.Errorf("multiplicity %d of tuple %s", n, t)
		case left == rows:
			b = NewSized(min(rows, maxPresize))
			b.arity = arity
		}
		key = t.AppendKey(key[:0])
		d := b.Distinct()
		b.put(keys.put(key, left), entry{p: t.Ptr(), count: n}, n)
		if b.Distinct() == d {
			return nil, fmt.Errorf("duplicate tuple %s", t)
		}
	}
	if b.m != nil {
		b.peak = max(b.peak, sat32(len(b.m)))
	}
	return b, nil
}

// arena hands out Build's keys as substrings of append-only chunks. A
// chunk is a strings.Builder grown once to its size and never past it:
// its String shares the buffer, and the bytes a returned key covers are
// never written again.
type arena struct {
	sb     strings.Builder
	chunks int // chunks allocated so far
}

// put returns k as a string in the arena. left is the rows still to
// come, this one included: a new chunk is sized for left more keys of
// k's length at most, and a key longer than arenaMax gets a chunk of
// its own.
func (a *arena) put(k []byte, left int) string {
	if a.sb.Cap()-a.sb.Len() < len(k) {
		a.sb.Reset()
		a.sb.Grow(max(min(arenaMin<<min(a.chunks, 4), arenaMax, left*len(k)), len(k)))
		a.chunks++
	}
	at := a.sb.Len()
	a.sb.Write(k)
	return a.sb.String()[at:]
}
