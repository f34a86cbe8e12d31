package bag

import (
	"fmt"
	"slices"

	"dvm/internal/schema"
)

// Slab sizes, in values, so a wide row and a narrow one cost the same
// bytes per slab. Slabs grow geometrically from slabMin to their
// carver's limit: Build's to slabMax, the join's only to joinSlabMax
// (64 KiB), since a join knows only a bound on the rows to come, not
// their count, and its last slab's unused tail stays that small.
const (
	slabMin     = 1 << 10 // values
	slabMax     = 1 << 16 // values: 1 MiB
	joinSlabMax = 1 << 12 // values: 64 KiB
)

// carver hands out tuples side by side in slabs of values it makes as
// they fill, each tuple a capped sub-slice (cap == arity), so an append
// to one copies instead of writing its neighbour. A slab is freed with
// the last live tuple it holds. The zero carver is not ready: limit is
// the most values a slab holds, and left bounds the tuples still to be
// carved — no slab has room for more, so a forged row count costs slabs
// in proportion to the rows that actually arrive, an honest table's
// last slab has no unused tail, and a small join's slab is small.
type carver struct {
	free  []schema.Value // the newest slab's values not yet handed out
	made  int            // slabs made so far
	limit int
	left  int
}

// carve returns arity NULLs for a new tuple, and the slab it made for
// the tuple, or nil when the current one had room for it.
func (c *carver) carve(arity int) (t schema.Tuple, fresh []schema.Value) {
	if len(c.free) < arity {
		perSlab := max(min(slabMin<<min(c.made, 6), c.limit)/arity, 1) // rows
		c.free = make([]schema.Value, min(perSlab, max(c.left, 1))*arity)
		c.made++
		fresh = c.free
	}
	c.left--
	t = schema.Tuple(c.free[:arity:arity])
	c.free = c.free[arity:]
	return t, fresh
}

// tuple returns arity NULLs for a new tuple, carved when c is not nil;
// a nil c, like a tuple of no values, makes it on its own.
func (c *carver) tuple(arity int) schema.Tuple {
	if c == nil || arity == 0 {
		return make(schema.Tuple, arity)
	}
	t, _ := c.carve(arity)
	return t
}

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
// is keyed, so the table is made once, for the rows that arrived: it
// does not grow row by row, and a row count no row backs does not size
// it. Until then only the rows of another multiplicity than 1 are
// listed, by position: a keyed table's rows cost nothing beside their
// slabs, and its table no counts.
//
// The bag carries Build's mark until its first write (Add and its kin,
// Clear, Adopt); a Clone does not carry it. Join.Hash carves its output
// tuples from slabs when both operands carry it — a one-shot join over
// freshly restored tables, such as LoadEngine's view replay — so the
// rows derived from a load are held as the load's own rows are.
func Build(arity, rows int, fill func(t schema.Tuple) (int, error)) (*Bag, error) {
	if rows < 1 {
		return New(), nil
	}
	type wideRow struct{ row, n int }
	var (
		cv    = carver{limit: slabMax, left: rows}
		sbuf  [16][]schema.Value // the slabs of a table of up to ~700k values
		slabs = sbuf[:0]
		wide  []wideRow // the rows of another multiplicity than 1, in order
	)
	for i := 0; i < rows; i++ {
		t, fresh := cv.carve(arity)
		if fresh != nil {
			slabs = append(slabs, fresh)
		}
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
	b := newSized(rows, len(wide) > 0)
	b.arity = int32(arity)
	var slab []schema.Value
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
		j, s := b.find(&b.table, h, t)
		if j >= 0 {
			return nil, fmt.Errorf("duplicate tuple %s", t)
		}
		b.add(h, t.Ptr(), n, s)
		b.size += n
	}
	b.last.Store(built)
	return b, nil
}
