package bag

import (
	"fmt"

	"dvm/internal/schema"
)

// Build's slab sizes. A slab is sized in values, so a wide row and a
// narrow one cost the same bytes per slab. Slabs grow geometrically from
// their minimum to their maximum, and none is larger than the rows still
// to come need: a forged row count costs slabs in proportion to the rows
// that actually arrive, and an honest table's last slab has no unused
// tail.
const (
	slabMin = 1 << 10 // values
	slabMax = 1 << 16 // values: 1 MiB
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
// The rows cost no allocation of their own: each is decoded straight
// into a slab shared by its neighbours, as a capped sub-slice, and
// keyed by its hash. A slab is freed with the last live row it holds: a
// deleted row pins its values until then, so a loaded bag holds at most
// the bytes it was decoded into.
func Build(arity, rows int, fill func(t schema.Tuple) (int, error)) (*Bag, error) {
	if rows < 1 {
		return New(), nil
	}
	var (
		b     *Bag
		slab  []schema.Value
		slabs int // slabs allocated so far
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
		h := hashOf(t)
		e, spill := b.lookup(h, t)
		if e.count > 0 {
			return nil, fmt.Errorf("duplicate tuple %s", t)
		}
		b.put(h, entry{p: t.Ptr(), count: n}, n, spill)
	}
	if b.m != nil {
		b.peak = max(b.peak, sat32(len(b.m)))
	}
	return b, nil
}
