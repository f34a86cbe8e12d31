package bag

import (
	"reflect"
	"strings"
	"testing"

	"dvm/internal/schema"
)

// rowsOf returns a Build fill that decodes rows[i] at its i-th call, with
// multiplicity 1+i%3.
func rowsOf(rows []schema.Tuple) func(schema.Tuple) (int, error) {
	i := 0
	return func(t schema.Tuple) (int, error) {
		copy(t, rows[i])
		i++
		return 1 + (i-1)%3, nil
	}
}

// testRows returns n distinct rows of arity values: ints, and a string
// whose length varies, so keys are of several lengths.
func testRows(n, arity int) []schema.Tuple {
	rows := make([]schema.Tuple, n)
	for i := range rows {
		t := make(schema.Tuple, arity)
		for k := range t {
			switch k % 2 {
			case 0:
				t[k] = schema.Int(int64(i*arity + k))
			default:
				t[k] = schema.Str(strings.Repeat("s", i%17))
			}
		}
		rows[i] = t
	}
	return rows
}

// TestBuildIsAddedRows: a built bag is the bag Add builds from the same
// rows, in the representation NewSized would pick, with every hash the
// tuple's own; and it is written, cloned and cleared like that bag
// afterwards.
func TestBuildIsAddedRows(t *testing.T) {
	for _, arity := range []int{0, 1, 3} {
		for _, n := range []int{0, 1, smallMax, smallMax + 1, 255, 256, 257, 5000} {
			if arity == 0 && n > 1 {
				continue // a 0-column table holds one tuple at most
			}
			rows := testRows(n, arity)
			ref := NewSized(n)
			for i, r := range rows {
				ref.Add(r, 1+i%3)
			}
			b, err := Build(arity, n, rowsOf(rows))
			if err != nil {
				t.Fatalf("arity %d, %d rows: %v", arity, n, err)
			}
			if !b.Equal(ref) || b.Len() != ref.Len() {
				t.Fatalf("arity %d, %d rows: built %v, want %v", arity, n, b, ref)
			}
			if b.small() != (n <= smallMax) {
				t.Errorf("arity %d, %d rows: built a small bag: %v", arity, n, b.small())
			}
			b.each(func(h uint32, e entry) {
				tu := b.tupleAt(e.p)
				if h != hashOf(tu) {
					t.Errorf("arity %d: hash %x stored for %v, whose hash is %x", arity, h, tu, hashOf(tu))
				}
			})
			if arity == 0 || n == 0 {
				continue // no second tuple to write
			}
			// Written after the load, as a restored table is.
			c := b.Clone()
			extra := make(schema.Tuple, arity)
			for k := range extra {
				extra[k] = schema.Int(-1)
			}
			b.Add(extra, 2).Remove(rows[0], 1)
			ref.Add(extra, 2).Remove(rows[0], 1)
			if !b.Equal(ref) {
				t.Fatalf("arity %d, %d rows: written after Build: %v, want %v", arity, n, b, ref)
			}
			if c.Contains(extra) || c.Count(rows[0]) != 1 {
				t.Fatalf("arity %d, %d rows: a write to the built bag reached its Clone", arity, n)
			}
			b.Clear()
			if !b.Empty() || b.Distinct() != 0 {
				t.Fatalf("arity %d, %d rows: Clear left %v", arity, n, b)
			}
		}
	}
}

// rebuilt returns the bag Build makes from b's tuples and counts: equal
// to b, and carrying Build's mark when b is not empty.
func rebuilt(t testing.TB, b *Bag) *Bag {
	t.Helper()
	var es []entry
	b.each(func(_ uint32, e entry) { es = append(es, e) })
	i := 0
	c, err := Build(int(b.arity), len(es), func(tu schema.Tuple) (int, error) {
		e := es[i]
		i++
		copy(tu, b.tupleAt(e.p))
		return e.count, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !c.Equal(b) || c.isBuilt() != (len(es) > 0) {
		t.Fatalf("rebuilt %v as %v (marked %v)", b, c, c.isBuilt())
	}
	return c
}

// addr is the address of t's first value.
func addr(t schema.Tuple) uintptr { return reflect.ValueOf(&t[0]).Pointer() }

// TestBuildSharesSlabs: rows are decoded side by side into slabs sized in
// values — the first 1 Ki values, 256 rows of 4 — and a slab's rows are
// capped sub-slices, so an append to one never writes its neighbour.
func TestBuildSharesSlabs(t *testing.T) {
	const arity = 4
	var got []schema.Tuple
	rows := testRows(3*slabMin/arity, arity)
	fill := rowsOf(rows)
	if _, err := Build(arity, len(rows), func(tu schema.Tuple) (int, error) {
		got = append(got, tu)
		return fill(tu)
	}); err != nil {
		t.Fatal(err)
	}
	for i, tu := range got {
		if len(tu) != arity || cap(tu) != arity {
			t.Fatalf("row %d: fill got %d values with capacity %d, want %d", i, len(tu), cap(tu), arity)
		}
	}
	perRow := uintptr(arity) * reflect.TypeOf(schema.Value{}).Size()
	for _, span := range [][2]int{{0, slabMin / arity}, {slabMin / arity, 3 * slabMin / arity}} {
		for i := span[0] + 1; i < span[1]; i++ {
			if addr(got[i])-addr(got[i-1]) != perRow {
				t.Fatalf("rows %d and %d are not neighbours in one slab (rows %d..%d should share one)", i-1, i, span[0], span[1]-1)
			}
		}
	}
	grown := append(got[0], schema.Int(99))
	if !got[1].Equal(rows[1]) || addr(grown) == addr(got[0]) {
		t.Fatal("an append to a built tuple wrote into its slab")
	}
}

// TestBuildRejects: a repeated row and a multiplicity below 1 are errors.
func TestBuildRejects(t *testing.T) {
	for _, n := range []int{2, 20} {
		rows := testRows(n+2, 2)
		rows[n+1] = rows[n]
		if _, err := Build(2, len(rows), rowsOf(rows)); err == nil || !strings.Contains(err.Error(), "duplicate tuple") {
			t.Errorf("a repeated row in %d built: %v", len(rows), err)
		}
	}
	for _, n := range []int{0, -1} {
		if _, err := Build(1, 1, func(tu schema.Tuple) (int, error) { return n, nil }); err == nil {
			t.Errorf("multiplicity %d built", n)
		}
	}
}
