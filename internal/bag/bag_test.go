package bag

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"dvm/internal/schema"
)

func row(vs ...any) schema.Tuple { return schema.Row(vs...) }

func bagOf(counts map[string]int) *Bag {
	b := New()
	for s, n := range counts {
		b.Add(row(s), n)
	}
	return b
}

func TestAddRemoveCount(t *testing.T) {
	b := New()
	if !b.Empty() || b.Len() != 0 || b.Distinct() != 0 {
		t.Fatal("fresh bag not empty")
	}
	b.Add(row("a"), 2)
	b.Add(row("b"), 1)
	if b.Len() != 3 || b.Distinct() != 2 {
		t.Fatalf("Len=%d Distinct=%d", b.Len(), b.Distinct())
	}
	if b.Count(row("a")) != 2 || !b.Contains(row("a")) {
		t.Fatal("count of a wrong")
	}
	b.Remove(row("a"), 1)
	if b.Count(row("a")) != 1 {
		t.Fatal("remove 1 wrong")
	}
	b.Remove(row("a"), 99) // clamp at zero
	if b.Contains(row("a")) || b.Len() != 1 {
		t.Fatal("clamped remove wrong")
	}
	b.Add(row("c"), 0) // no-op
	if b.Contains(row("c")) {
		t.Fatal("Add 0 should be a no-op")
	}
	b.Add(row("c"), -5) // negative add on absent tuple: no-op
	if b.Contains(row("c")) || b.Len() != 1 {
		t.Fatal("negative add on absent tuple should be a no-op")
	}
	b.Clear()
	if !b.Empty() {
		t.Fatal("Clear failed")
	}
}

func TestOfAndClone(t *testing.T) {
	b := Of(row(1), row(1), row(2))
	if b.Count(row(1)) != 2 || b.Count(row(2)) != 1 {
		t.Fatal("Of counts wrong")
	}
	c := b.Clone()
	c.Add(row(3), 1)
	if b.Contains(row(3)) {
		t.Fatal("Clone aliases storage")
	}
	if !b.Equal(Of(row(1), row(1), row(2))) {
		t.Fatal("original changed")
	}
}

func TestEqualAndSubBag(t *testing.T) {
	a := bagOf(map[string]int{"x": 2, "y": 1})
	b := bagOf(map[string]int{"x": 2, "y": 1})
	c := bagOf(map[string]int{"x": 1, "y": 1})
	d := bagOf(map[string]int{"x": 2, "z": 1})
	if !a.Equal(b) || a.Equal(c) || a.Equal(d) {
		t.Fatal("Equal wrong")
	}
	if !c.SubBagOf(a) || a.SubBagOf(c) {
		t.Fatal("SubBagOf wrong")
	}
	if !New().SubBagOf(a) || !a.SubBagOf(a) {
		t.Fatal("SubBagOf edge cases wrong")
	}
	if d.SubBagOf(a) {
		t.Fatal("d has z, not a subbag")
	}
}

func TestUnionAllMonus(t *testing.T) {
	a := bagOf(map[string]int{"x": 2, "y": 1})
	b := bagOf(map[string]int{"x": 1, "z": 3})
	u := UnionAll(a, b)
	if u.Count(row("x")) != 3 || u.Count(row("y")) != 1 || u.Count(row("z")) != 3 {
		t.Fatalf("UnionAll wrong: %v", u)
	}
	// operands untouched
	if a.Count(row("x")) != 2 || b.Count(row("z")) != 3 {
		t.Fatal("UnionAll mutated operands")
	}
	m := Monus(a, b)
	if m.Count(row("x")) != 1 || m.Count(row("y")) != 1 || m.Contains(row("z")) {
		t.Fatalf("Monus wrong: %v", m)
	}
	if !Monus(b, b).Empty() {
		t.Fatal("b ∸ b should be empty")
	}
}

func TestMinMaxIdentities(t *testing.T) {
	a := bagOf(map[string]int{"x": 3, "y": 1})
	b := bagOf(map[string]int{"x": 1, "z": 2})
	min := Min(a, b)
	if min.Count(row("x")) != 1 || min.Len() != 1 {
		t.Fatalf("Min wrong: %v", min)
	}
	max := Max(a, b)
	if max.Count(row("x")) != 3 || max.Count(row("y")) != 1 || max.Count(row("z")) != 2 {
		t.Fatalf("Max wrong: %v", max)
	}
	// Paper definitions: min = a ∸ (a ∸ b); max = a ⊎ (b ∸ a).
	if !min.Equal(Monus(a, Monus(a, b))) {
		t.Fatal("Min does not match a ∸ (a ∸ b)")
	}
	if !max.Equal(UnionAll(a, Monus(b, a))) {
		t.Fatal("Max does not match a ⊎ (b ∸ a)")
	}
}

func TestExcept(t *testing.T) {
	a := bagOf(map[string]int{"x": 3, "y": 2})
	b := bagOf(map[string]int{"x": 1})
	e := Except(a, b)
	// EXCEPT removes ALL copies of x because x ∈ b, regardless of count.
	if e.Contains(row("x")) || e.Count(row("y")) != 2 {
		t.Fatalf("Except wrong: %v", e)
	}
	// Monus, by contrast, leaves 2 copies of x.
	if Monus(a, b).Count(row("x")) != 2 {
		t.Fatal("Monus/EXCEPT distinction lost")
	}
}

func TestDupElim(t *testing.T) {
	a := bagOf(map[string]int{"x": 3, "y": 1})
	e := DupElim(a)
	if e.Count(row("x")) != 1 || e.Count(row("y")) != 1 || e.Len() != 2 {
		t.Fatalf("DupElim wrong: %v", e)
	}
	if !DupElim(New()).Empty() {
		t.Fatal("DupElim of empty should be empty")
	}
}

func TestSelect(t *testing.T) {
	a := Of(row(1), row(2), row(2), row(3))
	s := Select(a, func(tp schema.Tuple) bool { return tp[0].AsInt() >= 2 })
	if s.Count(row(2)) != 2 || s.Count(row(3)) != 1 || s.Contains(row(1)) {
		t.Fatalf("Select wrong: %v", s)
	}
}

// TestSelectStartsSmall: σ of a large bag is a small bag, made in one
// allocation, while at most smallMax tuples match, and a table past that;
// either way it holds what a filtering Add of every match would.
func TestSelectStartsSmall(t *testing.T) {
	a := New()
	for i := 0; i < 100; i++ {
		a.Add(row(i, i%7), 1+i%3)
	}
	for _, k := range []int{0, 1, 2, 3, smallMax, smallMax + 1, 40} {
		keep := func(tu schema.Tuple) bool { return tu[0].AsInt() < int64(k) }
		want := New()
		a.Each(func(tu schema.Tuple, n int) {
			if keep(tu) {
				want.Add(tu, n)
			}
		})
		got := Select(a, keep)
		if !got.Equal(want) || got.arity != a.arity {
			t.Fatalf("σ of %d matches = %v, want %v", k, got, want)
		}
		if small := got.small(); small != (k <= smallMax) {
			t.Errorf("σ of %d matches is small: %t", k, small)
		}
		if k <= smallMax {
			if allocs := testing.AllocsPerRun(20, func() { Select(a, keep) }); allocs != 1 {
				t.Errorf("σ of %d matches allocates %v times, want 1", k, allocs)
			}
		}
	}
}

// TestRefillIsSelectInPlace: Refill leaves b holding Select's answer
// from every start, small or a map, of another arity and shared with a
// Clone, which keeps what it held; refilled again with changes of the
// same size, it allocates nothing.
func TestRefillIsSelectInPlace(t *testing.T) {
	keep := func(tp schema.Tuple) bool { return tp[0].AsInt()%3 != 0 }
	for _, n := range []int{4, 40} {
		a := New()
		for i := 0; i < n; i++ {
			a.Add(row(i, i%5), 1+i%2)
		}
		for _, start := range starts {
			b := start().Add(row("x"), 2)
			held := b.Clone()
			if got, want := b.Refill(a, keep), Select(a, keep); got != b || !b.Equal(want) {
				t.Fatalf("%d rows: Refill = %v, want %v", n, b, want)
			}
			if held.Len() != 2 || held.Count(row("x")) != 2 {
				t.Fatalf("%d rows: the Clone of the refilled bag changed to %v", n, held)
			}
			if allocs := testing.AllocsPerRun(20, func() { b.Refill(a, keep) }); allocs != 0 {
				t.Errorf("%d rows: a warm Refill allocates %v times, want 0", n, allocs)
			}
		}
	}
}

func TestProjectPreservesDuplicates(t *testing.T) {
	a := Of(row(1, "p"), row(1, "q"), row(2, "p"))
	p := Project(a, func(tp schema.Tuple) schema.Tuple { return schema.NewTuple(tp[0]) })
	// [1,"p"] and [1,"q"] both project to [1]: multiplicity 2 (bag semantics).
	if p.Count(row(1)) != 2 || p.Count(row(2)) != 1 {
		t.Fatalf("Project wrong: %v", p)
	}
}

func TestProduct(t *testing.T) {
	a := Of(row(1), row(1)) // 1 with multiplicity 2
	b := Of(row("x"), row("y"))
	p := Product(a, b)
	if p.Len() != 4 || p.Count(row(1, "x")) != 2 || p.Count(row(1, "y")) != 2 {
		t.Fatalf("Product wrong: %v", p)
	}
	if !Product(a, New()).Empty() || !Product(New(), b).Empty() {
		t.Fatal("product with empty should be empty")
	}
}

func TestProductSelect(t *testing.T) {
	a := Of(row(1), row(2))
	b := Of(row(1), row(3))
	j := ProductSelect(a, b, func(tp schema.Tuple) bool { return tp[0].Equal(tp[1]) })
	if j.Len() != 1 || j.Count(row(1, 1)) != 1 {
		t.Fatalf("ProductSelect wrong: %v", j)
	}
	if !j.Equal(Select(Product(a, b), func(tp schema.Tuple) bool { return tp[0].Equal(tp[1]) })) {
		t.Fatal("ProductSelect != Select∘Product")
	}
}

func TestTuplesSortedAndString(t *testing.T) {
	b := Of(row(2), row(1), row(1))
	ts := b.Tuples()
	if len(ts) != 3 || ts[0][0].AsInt() != 1 || ts[1][0].AsInt() != 1 || ts[2][0].AsInt() != 2 {
		t.Fatalf("Tuples order wrong: %v", ts)
	}
	if got := b.String(); got != "{[1], [1], [2]}" {
		t.Fatalf("String = %q", got)
	}
}

// TestEachOrderedIsTuplesOrder: EachOrdered visits the distinct tuples
// in the order Tuples lists them, Tuple.Compare's — NULL, BOOL, numbers
// by value across INT and FLOAT, then strings, where sorted key strings
// put INT 10 before INT 2 — in every representation of the bag.
func TestEachOrderedIsTuplesOrder(t *testing.T) {
	for _, start := range starts {
		b := start()
		for i, v := range []any{10, 2, 2.5, "b", "a", nil, 1 << 53, 1<<53 + 1, -1, true, 3.0} {
			b.Add(row(v, i%3), 1+i%2)
		}
		var got []schema.Tuple
		b.EachOrdered(func(tu schema.Tuple, n int) {
			for range n {
				got = append(got, tu)
			}
		})
		want := b.Tuples()
		if len(got) != len(want) {
			t.Fatalf("EachOrdered visited %d tuples, Tuples lists %d", len(got), len(want))
		}
		for i := range got {
			if got[i].Compare(want[i]) != 0 {
				t.Fatalf("EachOrdered visits %v, Tuples lists %v", got, want)
			}
		}
	}
}

func TestEachVisitsAll(t *testing.T) {
	b := bagOf(map[string]int{"x": 2, "y": 5})
	total := 0
	distinct := 0
	b.Each(func(_ schema.Tuple, n int) { total += n; distinct++ })
	if total != 7 || distinct != 2 {
		t.Fatalf("Each visited total=%d distinct=%d", total, distinct)
	}
}

// buckets identifies the arrays b's table writes: a Clear that kept
// them leaves it unchanged.
func buckets(b *Bag) [2]uintptr {
	return [2]uintptr{reflect.ValueOf(b.p).Pointer(), reflect.ValueOf(b.aux).Pointer()}
}

// TestClearRetentionRule walks a bag through the fills the rule in
// Clear's doc comment distinguishes and checks, by the identity of the
// arrays, whether they were kept or given back; after every Clear
// the bag's own index is still registered, empty, and in step.
func TestClearRetentionRule(t *testing.T) {
	b := New()
	b.IndexOn([]int{0})
	fill := func(from, n int) {
		for i := from; i < from+n; i++ {
			b.Add(row(i%50, i), 1)
		}
	}
	steps := []struct {
		name string
		fill func()
		kept bool
	}{
		{"first fill: no evidence the buckets will be reused", func() { fill(0, 600) }, false},
		{"second fill of the same size", func() { fill(0, 600) }, true},
		{"third, a little larger", func() { fill(0, 900) }, true},
		{"a one-off bulk load is released at its own Clear", func() { fill(0, 20000) }, false},
		{"back to the ordinary size, into the pre-sized map", func() { fill(0, 600) }, true},
		{"grown by a bulk load that was deleted again before the Clear", func() {
			fill(0, 20000)
			for i := 600; i < 20000; i++ {
				b.Remove(row(i%50, i), 1)
			}
		}, false},
		{"ordinary again", func() { fill(0, 600) }, true},
		{"much smaller than the fills before it", func() { fill(0, 20) }, false},
		{"a handful of tuples is never worth a new map", func() { fill(0, 5) }, true},
		{"empty", func() {}, true},
	}
	lastFill := 0
	for _, st := range steps {
		st.fill()
		if msg := checkIndexOn(b); msg != "" {
			t.Fatalf("%s: before Clear: %s", st.name, msg)
		}
		before := buckets(b)
		n := b.Distinct()
		b.Clear()
		if !b.Empty() || b.Distinct() != 0 {
			t.Fatalf("%s: Clear left %d tuples", st.name, b.Len())
		}
		if kept := buckets(b) == before; kept != st.kept {
			t.Fatalf("%s (%d tuples): buckets kept = %v, want %v", st.name, n, kept, st.kept)
		}
		if n > 0 {
			lastFill = n
		}
		if cap(b.p) > max(4*lastFill, clearFloor) {
			t.Fatalf("%s: last held %d tuples but keeps room for %d", st.name, lastFill, cap(b.p))
		}
		if got := b.Indexes(); len(got) != 1 {
			t.Fatalf("%s: Clear dropped the bag's index: %v", st.name, got)
		}
		ix, applied := b.IndexOn([]int{0})
		if len(ix.m) != 0 || len(ix.buckets) != 0 || applied != 0 {
			t.Fatalf("%s: the bag's index holds %d buckets after Clear (%d entries applied)", st.name, len(ix.m), applied)
		}
	}
	// Kept buckets mean a round that allocates nothing: the tuples and
	// keys of src are shared, and the map is already large enough.
	src, c := New(), New()
	for i := 0; i < 600; i++ {
		src.Add(row(i), 1)
	}
	round := func() { c.AddBag(src); c.Clear() }
	round()
	round()
	if n := testing.AllocsPerRun(10, round); n != 0 {
		t.Fatalf("a steady fill/Clear round allocates %v times, want 0", n)
	}
}

// A stored tuple is one pointer under its bag's arity, and is keyed by
// its 32-bit hash, kept beside it in the table's second array. An index
// bucket's entry and a journal entry keep no key — the stored pointer
// names the row — so each is the pointer and a count, 16 bytes, as is
// the entry a lookup or a walk hands out. Every operator of every
// evaluation allocates a Bag: its table's two slice headers, the size,
// the arity and last (with the shared mark in its top bit) in one word,
// and the derived and levels pointers — 80 bytes, Go's size class for
// 72 as well. New allocates it with room for two entries and their
// counts, 120 bytes, the 128-byte class, where a map bag's Bag, map
// header and first group were three objects and 384 bytes. An eleventh
// word, or a third entry, would move New to the 144-byte class.
func TestBagSize(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"entry", unsafe.Sizeof(entry{}), 16},
		{"indexEntry", unsafe.Sizeof(indexEntry{}), 16},
		{"jentry", unsafe.Sizeof(jentry{}), 16},
	} {
		if c.got != c.want {
			t.Errorf("sizeof(%s) = %d, want %d", c.name, c.got, c.want)
		}
	}
	if got := unsafe.Sizeof(Bag{}); got > 80 {
		t.Errorf("sizeof(Bag) = %d, want at most 80", got)
	}
	if got := unsafe.Sizeof(smallBag{}); got > 128 {
		t.Errorf("sizeof(smallBag) = %d, want at most 128", got)
	}
}

// TestSmallBagLife walks a bag through the rules of its small room: New
// plus two Adds is one allocation (the bag with room for two entries; an
// entry keeps a hash, not a key string), where a map bag's was five; the
// smallMax-th distinct tuple stays in the small room, scanned, and the
// next one moves the bag to a table with a position table; a small
// bag's Clear keeps its room; its Clone is a copy, counted in
// CopiedEntries, that marks neither bag and leaves Prepare nothing to
// do; and an index asked of a small bag leaves it small.
func TestSmallBagLife(t *testing.T) {
	r1, r2 := row(1, "a"), row(2, "b")
	if got := testing.AllocsPerRun(100, func() { New().Add(r1, 1).Add(r2, 1) }); got != 1 {
		t.Errorf("New and two Adds allocate %v times, want 1", got)
	}
	if got := testing.AllocsPerRun(100, func() { New().Add(r1, 2).Add(r2, 3) }); got != 1 {
		t.Errorf("New and two Adds of counts 2 and 3 allocate %v times, want 1", got)
	}

	b := New()
	for i := 0; i < smallMax; i++ {
		b.Add(row(i), 1)
	}
	if !b.small() || b.Distinct() != smallMax || len(b.slots()) != 0 {
		t.Fatalf("%d distinct tuples: small %v, want a small bag", b.Distinct(), b.small())
	}
	c0 := CopiedEntries()
	c := b.Clone()
	if n := CopiedEntries() - c0; n != smallMax || !c.small() || b.isShared() || c.isShared() {
		t.Fatalf("Clone of a small bag copied %d entries (small %v, marked %v/%v), want %d, small, unmarked",
			n, c.small(), b.isShared(), c.isShared(), smallMax)
	}
	if b.Prepare(100) != nil {
		t.Fatal("Prepare found something owing on a small bag")
	}
	c.Add(row(0), 1)
	b.Add(row(smallMax), 1)
	if b.small() || len(b.slots()) == 0 || len(b.p) != smallMax+1 || !c.small() || c.Len() != smallMax+1 || b.Count(row(0)) != 1 {
		t.Fatalf("the %d-th distinct tuple: b %v (small %v), its clone %v (small %v)", smallMax+1, b, b.small(), c, c.small())
	}

	c.Clear()
	if !c.small() || cap(c.p) != smallMax || !c.Empty() {
		t.Fatalf("Clear of a small bag: small %v, room for %d kept", c.small(), cap(c.p))
	}
	c.Add(r1, 1)
	ix, _ := c.IndexOn([]int{0})
	if !c.small() || len(ix.buckets) != 1 || len(ix.buckets[0].rows) != 1 {
		t.Fatalf("IndexOn of a small bag: small %v, index of %d buckets", c.small(), len(ix.buckets))
	}
}

// TestBagArity pins the arity contract: a non-empty bag holds tuples of
// one arity, every pure operator's output carries the arity of the
// operand its entries come from (including Max over an empty left side),
// Clear lets a refill choose another arity, and a mismatched insert
// panics with both arities — while a mismatched removal is a no-op.
func TestBagArity(t *testing.T) {
	a := Of(row(1, "x"), row(2, "y"), row(2, "y"))
	b := Of(row(2, "y"), row(3, "z"))
	keep := func(schema.Tuple) bool { return true }
	for _, c := range []struct {
		name string
		out  *Bag
		want int
	}{
		{"Monus", Monus(a, b), 2},
		{"Min", Min(a, b), 2},
		{"MinWithin", MinWithin(a, b, b), 2},
		{"Max", Max(a, b), 2},
		{"Max(empty, b)", Max(New(), b), 2},
		{"Max(a, empty)", Max(a, New()), 2},
		{"Except", Except(a, b), 2},
		{"DupElim", DupElim(a), 2},
		{"Select", Select(a, keep), 2},
		{"UnionAll", UnionAll(New(), b), 2},
		{"Applied", Applied(New(), nil, b, nil), 2},
		{"Project", Project(a, func(tu schema.Tuple) schema.Tuple { return tu[:1] }), 1},
		{"Product", Product(a, b), 4},
		{"Join.Indexed", mustJoin(a, b, nil), 4},
		{"Join.Indexed, projected", mustJoin(a, b, []int{3, 0, 1}), 3},
		{"Clone", a.Clone(), 2},
	} {
		if int(c.out.arity) != c.want {
			t.Errorf("%s: arity %d, want %d", c.name, c.out.arity, c.want)
			continue // its tuples cannot be read back, nor a tuple of its arity added
		}
		// The tuples read back under that arity are the operator's own.
		c.out.Each(func(tu schema.Tuple, n int) {
			if len(tu) != c.want || c.out.Count(tu) != n {
				t.Errorf("%s: read back %v ×%d", c.name, tu, n)
			}
		})
		// And the output takes a tuple of its arity, and no other.
		c.out.Add(make(schema.Tuple, c.want), 1)
		if msg := arityPanic(func() { c.out.Add(make(schema.Tuple, c.want+1), 1) }); msg == "" {
			t.Errorf("%s: a %d-column insert did not panic", c.name, c.want+1)
		}
	}

	// Clear, then a refill of another arity; emptying by removal too.
	c := a.Clone()
	ix, _ := c.IndexOn([]int{0})
	c.Clear()
	c.Add(row(7), 1)
	if c.arity != 1 || !c.Equal(Of(row(7))) {
		t.Fatalf("refill after Clear: arity %d, %v", c.arity, c)
	}
	if again, _ := c.IndexOn([]int{0}); again != ix || len(ix.m) != 1 {
		t.Fatalf("the bag's own index did not follow the refill: %d buckets", len(ix.m))
	}
	c.Remove(row(7), 1)
	c.Add(row(7, 8, 9), 2)
	if c.arity != 3 || c.Count(row(7, 8, 9)) != 2 {
		t.Fatalf("refill after removing everything: arity %d, %v", c.arity, c)
	}
	if msg := checkIndexOn(c); msg != "" {
		t.Fatalf("the bag's own index across an arity change: %s", msg)
	}

	// A mismatched removal is a no-op; a mismatched insert names both arities.
	c.Remove(row(7, 8), 1)
	c.Add(row(1, 2, 3, 4), -1)
	if c.Len() != 2 || c.Distinct() != 1 {
		t.Fatalf("a mismatched removal changed the bag: %v", c)
	}
	msg := arityPanic(func() { c.Add(row(1, 2), 1) })
	if !strings.Contains(msg, "2-column") || !strings.Contains(msg, "3-column") {
		t.Fatalf("mismatched Add panicked with %q, want both arities", msg)
	}
	if msg := arityPanic(func() { Max(a, Of(row(1))) }); msg == "" {
		t.Fatal("Max of a 2- and a 1-column bag did not panic")
	}
}

// mustJoin is l ⋈ r on their first columns, projected or not.
func mustJoin(l, r *Bag, project []int) *Bag {
	out, _ := indexed(&Join{Project: project}, l, []int{0}, NewIndex(r, []int{0}), nil, false)
	return out
}

// arityPanic runs f and returns what it panicked with, "" if nothing.
func arityPanic(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// TestCloneCopiesOnceAtTheFirstWrite walks the copy-on-write life of a
// clone, counted in entries copied: Clone and reads copy none; the
// first write to either side of a shared flat map copies the map once;
// the writer's ahead-of-time Prepare takes the place of that copy — a
// whole copy for a write as large as the bag, none at all for a smaller
// one, which goes two-level, then the overlay alone after the next
// Clone, and a fold into one map once the rent reaches the base; Clear
// on a shared bag leaves the other side's contents alone; and a bag
// nothing shares copies nothing at all. Every clone keeps its contents.
func TestCloneCopiesOnceAtTheFirstWrite(t *testing.T) {
	entries := func(f func()) uint64 {
		c0 := CopiedEntries()
		f()
		return CopiedEntries() - c0
	}
	type snap struct {
		b    *Bag
		want string
	}
	var snaps []snap
	clone := func(b *Bag) *Bag {
		c := b.Clone()
		snaps = append(snaps, snap{c, c.String()})
		return c
	}
	src := New()
	for i := 0; i < 10; i++ {
		src.Add(row(i), 1+i%2)
	}
	var c *Bag
	if n := entries(func() { c = clone(src); c.Count(row(1)); c.Len() }); n != 0 {
		t.Fatalf("Clone and reads copied %d entries, want 0", n)
	}
	if n := entries(func() { c.Add(row(10), 1); c.Add(row(11), 1); c.Remove(row(1), 1) }); n != 10 {
		t.Fatalf("three writes to a clone copied %d entries, want the 10 it shares, once", n)
	}
	snaps = snaps[1:] // c is written on purpose
	if n := entries(func() { src.Add(row(12), 1) }); n != 10 {
		t.Fatalf("the source's first write after a Clone copied %d entries, want 10", n)
	}

	// The writer of a bag readers Clone prepares ahead, then adopts. A
	// write as large as the bag (11 distinct) takes a flat copy.
	clone(src)
	if n := entries(func() { src.Adopt(src.Prepare(11)); src.Add(row(13), 1) }); n != 11 || src.lv != nil {
		t.Fatalf("Prepare(11) of an 11-entry shared bag and a write copied %d entries (two-level %v), want 11, flat", n, src.lv != nil)
	}
	// A smaller one goes two-level: the 12 entries freeze as the base, and
	// neither Prepare nor the writes copy any.
	clone(src)
	if n := entries(func() {
		src.Adopt(src.Prepare(2))
		src.Add(row(14), 1)
		src.Remove(row(0), 1) // a base entry: a tombstone
	}); n != 0 || src.lv == nil || len(src.lv.base.p) != 12 || len(src.p) != 2 {
		t.Fatalf("Prepare(2) of a 12-entry shared bag and two writes copied %d entries, want 0 and a 2-entry overlay over 12", n)
	}
	if src.Prepare(0) != nil {
		t.Fatal("Prepare found something owing on a private overlay under its rent")
	}
	// A Clone of a two-level bag shares both levels: the next write copies
	// the 2-entry overlay alone. Rent: 2 written + 2 copied + 1 written.
	clone(src)
	if n := entries(func() { src.Add(row(15), 1) }); n != 2 || src.lv.rent != 5 {
		t.Fatalf("a write after a Clone of a two-level bag copied %d entries (rent %d), want its 2-entry overlay (rent 5)", n, src.lv.rent)
	}
	// 5 rent + 3 shared overlay entries + 4 pending reaches the 12-entry
	// base: Prepare folds the levels into one map of the 13 live entries.
	clone(src)
	var p *Bag
	if n := entries(func() { p = src.Prepare(4) }); n != 13 || p.lv != nil || len(p.p) != 13 || !p.Equal(src) {
		t.Fatalf("Prepare(4) at the rent's limit copied %d entries into %v, want a fold of the 13 live ones", n, p)
	}
	src.Adopt(p)
	if n := entries(func() { src.Add(row(16), 1); src.Remove(row(2), 1) }); n != 0 || src.Prepare(100) != nil {
		t.Fatalf("writes to a folded bag copied %d entries, want 0, and nothing owing", n)
	}

	// Clear on either side of a shared map empties that side only.
	s := snaps[0].b
	c = s.Clone()
	if n := entries(func() { c.Clear() }); n != 0 || !c.Empty() || s.Len() != 16 {
		t.Fatalf("Clear on a clone: %d entries copied, clone %v, source %v", n, c, s)
	}
	if n := entries(func() { s.Clear(); s.Add(row(7), 1) }); n != 0 || s.Len() != 1 {
		t.Fatalf("Clear then a write on a shared source: %d entries copied, %v", n, s)
	}
	for i, sn := range snaps[1:] {
		if got := sn.b.String(); got != sn.want {
			t.Fatalf("clone %d changed under the source's writes: %s, was %s", i+1, got, sn.want)
		}
	}
}
