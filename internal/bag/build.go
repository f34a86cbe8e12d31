package bag

import (
	"fmt"
	"slices"

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
)

// Build returns a bag of rows distinct tuples of arity values each, all
// arriving at once: a snapshot's table. fill decodes one row into t
// (arity NULLs to overwrite, capacity arity) and returns its
// multiplicity, which must be positive; an error from fill is Build's.
// A row equal to an earlier one is an error too. rows is untrusted:
// what Build allocates grows with the rows fill decodes.
//
// The rows cost no allocation of their own: each is decoded straight
// into a slab shared by its neighbours, as a capped sub-slice, and
// keyed by its hash. A slab is freed with the last live row it holds: a
// deleted row pins its values until then, so a loaded bag holds at most
// the bytes it was decoded into. Every row is decoded before the first
// is keyed, so each of the two maps is made once, for the rows it takes:
// neither grows row by row, and a row count no row backs sizes neither.
// Until then only the rows of another multiplicity than 1 are listed,
// by position: a keyed table's rows cost nothing beside their slabs.
func Build(arity, rows int, fill func(t schema.Tuple) (int, error)) (*Bag, error) {
	if rows < 1 {
		return New(), nil
	}
	type wideRow struct{ row, n int }
	var (
		slab  []schema.Value
		sbuf  [16][]schema.Value // the slabs of a table of up to ~700k values
		slabs = sbuf[:0]
		wide  []wideRow // the rows of another multiplicity than 1, in order
	)
	for i := 0; i < rows; i++ {
		if len(slab) < arity {
			perSlab := max(min(slabMin<<min(len(slabs), 6), slabMax)/arity, 1) // rows
			slab = make([]schema.Value, min(perSlab, rows-i)*arity)
			slabs = append(slabs, slab)
		}
		t := schema.Tuple(slab[:arity:arity])
		slab = slab[arity:]
		switch n, err := fill(t); {
		case err != nil:
			return nil, err
		case n < 1:
			return nil, fmt.Errorf("multiplicity %d of tuple %s", n, t)
		case n > 1:
			if len(wide) == cap(wide) {
				wide = slices.Grow(wide, max(len(wide), 256)) // doubling: a list of a few allocations
			}
			wide = append(wide, wideRow{i, n})
		}
	}
	var b *Bag
	if rows <= smallMax {
		b = NewSized(rows)
	} else {
		b = newMapBag(sized(rows-len(wide), len(wide)))
		b.peak = sat32(rows)
	}
	b.arity = arity
	slab = nil
	for i, left := 0, slabs; i < rows; i++ {
		if len(slab) < arity {
			slab, left = left[0], left[1:]
		}
		t := schema.Tuple(slab[:arity:arity])
		slab = slab[arity:]
		n := 1
		if len(wide) > 0 && wide[0].row == i {
			n, wide = wide[0].n, wide[1:]
		}
		h := hashOf(t)
		e, spill := b.lookup(h, t)
		if e.count > 0 {
			return nil, fmt.Errorf("duplicate tuple %s", t)
		}
		b.put(h, entry{p: t.Ptr(), count: n}, n, spill)
	}
	return b, nil
}
