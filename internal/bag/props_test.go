package bag

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"dvm/internal/schema"
)

// starts are the three ways a bag's life begins, and so the three states
// its contents can be read in: small (New), outgrown — a small bag that
// outgrew its room into a position table, emptied again — and a table
// from the start (newTabled). The properties and FuzzBagOps run each bag
// in every one of them.
var starts = []func() *Bag{New, outgrown, newTabled}

// newTabled returns an empty bag with a position table from the start.
func newTabled() *Bag { return NewSized(smallMax + 1) }

// outgrown returns an empty bag that has outgrown its small room.
func outgrown() *Bag {
	b := New()
	for i := 0; i <= smallMax; i++ {
		b.Add(schema.Row(-1-i), 1)
	}
	for i := 0; i <= smallMax; i++ {
		b.Remove(schema.Row(-1-i), 1)
	}
	return b
}

// twins returns b's contents in each representation that holds them: an
// outgrown bag, a table from the start and, when they fit its room, a
// small bag.
func twins(b *Bag) []*Bag {
	out := []*Bag{outgrown().AddBag(b), newTabled().AddBag(b)}
	if b.Distinct() <= smallMax {
		out = append(out, New().AddBag(b))
	}
	return out
}

// genBag is a quick.Generator wrapper producing small random bags of
// 1-column tuples over a tiny domain, so collisions are frequent and the
// multiset laws are exercised on nontrivial multiplicities. Each bag
// starts as one of starts, drawn at random, so every property meets
// every representation, alone and against each other one.
type genBag struct{ B *Bag }

// Generate implements quick.Generator.
func (genBag) Generate(r *rand.Rand, _ int) reflect.Value {
	b := starts[r.Intn(len(starts))]()
	n := r.Intn(12)
	for i := 0; i < n; i++ {
		b.Add(schema.Row(r.Intn(4)), 1+r.Intn(3))
	}
	return reflect.ValueOf(genBag{B: b})
}

var qcfg = &quick.Config{MaxCount: 300}

func TestPropUnionCommutativeAssociative(t *testing.T) {
	comm := func(x, y genBag) bool { return UnionAll(x.B, y.B).Equal(UnionAll(y.B, x.B)) }
	if err := quick.Check(comm, qcfg); err != nil {
		t.Error(err)
	}
	assoc := func(x, y, z genBag) bool {
		return UnionAll(UnionAll(x.B, y.B), z.B).Equal(UnionAll(x.B, UnionAll(y.B, z.B)))
	}
	if err := quick.Check(assoc, qcfg); err != nil {
		t.Error(err)
	}
}

func TestPropMonusLaws(t *testing.T) {
	// (a ⊎ b) ∸ b ≡ a
	inv := func(x, y genBag) bool { return Monus(UnionAll(x.B, y.B), y.B).Equal(x.B) }
	if err := quick.Check(inv, qcfg); err != nil {
		t.Errorf("(a⊎b)∸b ≡ a: %v", err)
	}
	// a ∸ b ⊑ a
	sub := func(x, y genBag) bool { return Monus(x.B, y.B).SubBagOf(x.B) }
	if err := quick.Check(sub, qcfg); err != nil {
		t.Errorf("a∸b ⊑ a: %v", err)
	}
	// (a ∸ b) ∸ c ≡ a ∸ (b ⊎ c)
	curry := func(x, y, z genBag) bool {
		return Monus(Monus(x.B, y.B), z.B).Equal(Monus(x.B, UnionAll(y.B, z.B)))
	}
	if err := quick.Check(curry, qcfg); err != nil {
		t.Errorf("(a∸b)∸c ≡ a∸(b⊎c): %v", err)
	}
	// b.AddMonus(a, c) is b ⊎ (a ∸ c), in place, with a and c untouched.
	inPlace := func(x, y, z genBag) bool {
		want := UnionAll(z.B, Monus(x.B, y.B))
		x0, y0 := x.B.String(), y.B.String()
		got := z.B.Clone().AddMonus(x.B, y.B)
		return got.Equal(want) && x.B.String() == x0 && y.B.String() == y0
	}
	if err := quick.Check(inPlace, qcfg); err != nil {
		t.Errorf("b.AddMonus(a, c) ≡ b ⊎ (a∸c): %v", err)
	}
}

func TestPropMinMaxDefinitions(t *testing.T) {
	// Paper's derived definitions (Section 2.1).
	minDef := func(x, y genBag) bool { return Min(x.B, y.B).Equal(Monus(x.B, Monus(x.B, y.B))) }
	if err := quick.Check(minDef, qcfg); err != nil {
		t.Errorf("min def: %v", err)
	}
	maxDef := func(x, y genBag) bool { return Max(x.B, y.B).Equal(UnionAll(x.B, Monus(y.B, x.B))) }
	if err := quick.Check(maxDef, qcfg); err != nil {
		t.Errorf("max def: %v", err)
	}
	comm := func(x, y genBag) bool {
		return Min(x.B, y.B).Equal(Min(y.B, x.B)) && Max(x.B, y.B).Equal(Max(y.B, x.B))
	}
	if err := quick.Check(comm, qcfg); err != nil {
		t.Errorf("min/max commutativity: %v", err)
	}
	// Inclusion–exclusion for bags: min(a,b) ⊎ max(a,b) ≡ a ⊎ b.
	inclExcl := func(x, y genBag) bool {
		return UnionAll(Min(x.B, y.B), Max(x.B, y.B)).Equal(UnionAll(x.B, y.B))
	}
	if err := quick.Check(inclExcl, qcfg); err != nil {
		t.Errorf("min⊎max ≡ a⊎b: %v", err)
	}
}

func TestPropCancellationLemma(t *testing.T) {
	// Lemma 1 (cancellation): if N ≡ (O ∸ D) ⊎ I then O ≡ (N ∸ I) ⊎ (O min D).
	lemma := func(o, d, i genBag) bool {
		n := UnionAll(Monus(o.B, d.B), i.B)
		back := UnionAll(Monus(n, i.B), Min(o.B, d.B))
		return back.Equal(o.B)
	}
	if err := quick.Check(lemma, qcfg); err != nil {
		t.Errorf("Lemma 1 fails: %v", err)
	}
}

func TestPropWeaklyMinimalComposition(t *testing.T) {
	// Lemma 3: with D1 ⊑ O and D2 ⊑ (O ∸ D1) ⊎ I1,
	// D3 = D1 ⊎ (D2 ∸ I1), I3 = (I1 ∸ D2) ⊎ I2 compose the two updates and
	// D3 ⊑ O.
	lemma := func(o, rd1, i1, rd2, i2 genBag) bool {
		d1 := Min(rd1.B, o.B) // force precondition D1 ⊑ O
		mid := UnionAll(Monus(o.B, d1), i1.B)
		d2 := Min(rd2.B, mid) // force precondition D2 ⊑ mid
		lhs := UnionAll(Monus(mid, d2), i2.B)
		d3 := UnionAll(d1, Monus(d2, i1.B))
		i3 := UnionAll(Monus(i1.B, d2), i2.B)
		rhs := UnionAll(Monus(o.B, d3), i3)
		return lhs.Equal(rhs) && d3.SubBagOf(o.B)
	}
	if err := quick.Check(lemma, qcfg); err != nil {
		t.Errorf("Lemma 3 fails: %v", err)
	}
}

func TestPropExceptEncoding(t *testing.T) {
	// EXCEPT is derivable: keep tuples of a whose count in b is 0 — check
	// against the direct per-tuple characterization.
	prop := func(x, y genBag) bool {
		e := Except(x.B, y.B)
		ok := true
		x.B.Each(func(tp schema.Tuple, n int) {
			want := n
			if y.B.Contains(tp) {
				want = 0
			}
			if e.Count(tp) != want {
				ok = false
			}
		})
		return ok && e.SubBagOf(x.B)
	}
	if err := quick.Check(prop, qcfg); err != nil {
		t.Error(err)
	}
}

func TestPropDupElimIdempotent(t *testing.T) {
	prop := func(x genBag) bool {
		e := DupElim(x.B)
		return DupElim(e).Equal(e) && e.SubBagOf(x.B) && e.Distinct() == x.B.Distinct()
	}
	if err := quick.Check(prop, qcfg); err != nil {
		t.Error(err)
	}
}

func TestPropCloneAndEqualConsistent(t *testing.T) {
	prop := func(x genBag) bool {
		c := x.B.Clone()
		if !c.Equal(x.B) {
			return false
		}
		c.Add(schema.Row(99), 1)
		return !c.Equal(x.B)
	}
	if err := quick.Check(prop, qcfg); err != nil {
		t.Error(err)
	}
}

// A Clone is a snapshot of its source and the source of it: random
// programs of writes, Clears, index look-ups, Clones and Prepares over
// two handles keep each handle equal to its own model at every step
// (runHandles). Clone, switch and Prepare ops are drawn often, so most
// programs share a map between the handles, go two-level, and then
// write to either side of it.
func TestPropCloneIsASnapshot(t *testing.T) {
	prop := func(ops []uint8) bool {
		data := make([]byte, 0, 3*len(ops))
		for i, op := range ops {
			if i%4 == 1 {
				op = 8 + op%3 // Clone, switch handles, or Prepare
			}
			data = append(data, op, byte(i*7), byte(i))
		}
		for _, start := range starts {
			runHandles(t, data, start, 2)
		}
		return true
	}
	if err := quick.Check(prop, qcfg); err != nil {
		t.Error(err)
	}
}

// EachApplied enumerates (b ∸ del) ⊎ add, building nothing and copying
// nothing, and Applied collects it: the fresh-read primitives. Filtered,
// Applied only reads b, so neither it nor b's next write copies an
// entry. Unfiltered, its answer is a Clone of b given the differential —
// a copy of a small b, a share of a map b's map, which marks b — which
// later writes to b must not reach. That EachApplied and a filtered
// Applied leave no mark is checked through CopiedEntries: a no-op write
// right after each pays any copy a mark left owing, and a small bag,
// which is never marked, is covered too.
func TestPropAppliedIsMonusUnion(t *testing.T) {
	keep := func(tu schema.Tuple) bool { return tu[0].AsInt()%2 == 0 }
	prop := func(x, d, a genBag) bool {
		noCopy := func(c0 uint64) bool {
			x.B.Remove(schema.Row(-1), 1) // changes nothing, but pays any copy a mark left owing
			return CopiedEntries() == c0
		}
		for _, k := range []func(schema.Tuple) bool{keep, nil} {
			want := UnionAll(Monus(x.B, d.B), a.B)
			if k != nil {
				want = Select(want, k)
			}
			c0 := CopiedEntries()
			seen := New()
			x.B.EachApplied(d.B, a.B, k, func(tu schema.Tuple, n int) { seen.Add(tu, n) })
			if !seen.Equal(want) || !noCopy(c0) {
				return false
			}
			got := Applied(x.B, d.B, a.B, k)
			if !got.Equal(want) || !x.B.small() && x.B.isShared() != (k == nil) {
				return false
			}
			if k != nil {
				if !noCopy(c0) {
					return false
				}
				continue
			}
			x.B.ApplyDelta(a.B, d.B)
			if !got.Equal(want) {
				return false
			}
		}
		return Applied(x.B, nil, nil, nil).Equal(x.B)
	}
	if err := quick.Check(prop, qcfg); err != nil {
		t.Error(err)
	}
}

func TestPropProductDistributesOverUnion(t *testing.T) {
	// (a ⊎ b) × c ≡ (a × c) ⊎ (b × c)
	prop := func(x, y, z genBag) bool {
		l := Product(UnionAll(x.B, y.B), z.B)
		r := UnionAll(Product(x.B, z.B), Product(y.B, z.B))
		return l.Equal(r)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPropLenDistinct(t *testing.T) {
	prop := func(x, y genBag) bool {
		u := UnionAll(x.B, y.B)
		return u.Len() == x.B.Len()+y.B.Len() && u.Distinct() >= x.B.Distinct() && u.Distinct() >= y.B.Distinct()
	}
	if err := quick.Check(prop, qcfg); err != nil {
		t.Error(err)
	}
}

// MinWithin is Min seen through the tuples of its within bags — each
// counted once, however many of them hold it.
func TestPropMinWithinIsMinRestricted(t *testing.T) {
	prop := func(x, y, w1, w2 genBag) bool {
		touched := UnionAll(w1.B, w2.B)
		want := Select(Min(x.B, y.B), touched.Contains)
		return MinWithin(x.B, y.B, w1.B, w2.B).Equal(want) && MinWithin(x.B, y.B).Empty()
	}
	if err := quick.Check(prop, qcfg); err != nil {
		t.Error(err)
	}
}

// checkApplyDelta asserts the in-place primitive's contract on one
// (b, del, add) triple: b.ApplyDelta(del, add) leaves b equal to the
// pure (b ∸ del) ⊎ add and the operands untouched, an Index built
// before the call and Synced after equals one built fresh, and the
// journal accounting ver == jbase + len(jour) holds. It returns a
// description of the first violation, or "".
func checkApplyDelta(b, del, add *Bag) string {
	want := UnionAll(Monus(b, del), add)
	del0, add0 := del.Clone(), add.Clone()
	got := b.Clone()
	ix := NewIndex(got, []int{0})
	got.ApplyDelta(del, add)
	switch {
	case !got.Equal(want):
		return "ApplyDelta(b, d, a) != UnionAll(Monus(b, d), a)"
	case got.Len() != want.Len() || got.Distinct() != want.Distinct():
		return "ApplyDelta left Len/Distinct out of step with the contents"
	case !del.Equal(del0) || !add.Equal(add0):
		return "ApplyDelta mutated an operand"
	case len(got.dx.jour) > 0 && got.dx.ver != got.dx.jbase+uint64(len(got.dx.jour)):
		return "journal invariant ver == jbase + len(jour) broken"
	}
	if _, ok := ix.Sync(got); !ok {
		// The journal window (256 entries at least) covers every delta
		// these tests generate.
		return "Index.Sync could not catch up through the journal"
	}
	if !reflect.DeepEqual(indexContents(ix), indexContents(NewIndex(got, []int{0}))) {
		return "Index synced across ApplyDelta differs from a fresh NewIndex"
	}
	return ""
}

// checkIndexOn asserts the contract of the bag's own index on column 0:
// whatever happened to b since the last call — single changes,
// ApplyDelta, Clear, a burst longer than the journal window — IndexOn
// returns the same index (never a rebuilt one), equal bucket for bucket
// to an index built fresh over b's current contents, with every entry
// holding the tuple pointer b stores for its row and found by that
// pointer, through its bucket's lookup, at its true position; a bucket
// past the scan limit has a sound position table (tableFault); and
// asking again applies nothing. It returns a description of the first
// violation, or "". It inspects b without marking it: the fresh index
// is built over b itself and not registered, never over a Clone, which
// would mark b shared and change what its next Clear does.
func checkIndexOn(b *Bag) string {
	pos := []int{0}
	ix, _ := b.IndexOn(pos)
	if len(b.dx.owned) != 1 {
		return "IndexOn registered a second index on the same columns"
	}
	if !reflect.DeepEqual(indexContents(ix), indexContents(newIndex(b, pos))) {
		return "IndexOn differs from a fresh NewIndex over the same contents"
	}
	n := 0
	for _, k := range ix.m {
		bk := &ix.buckets[k]
		if msg := tableFault(bk); msg != "" {
			return msg
		}
		for i, e := range bk.rows {
			if tu := b.tupleAt(e.p); b.get(hashOf(tu), tu).p != e.p {
				return "IndexOn entry holds another pointer than the bag stores for its row"
			}
			if at, _, _ := bk.find(e.p); at != i {
				return fmt.Sprintf("IndexOn entry at position %d of %d is found at %d", i, len(bk.rows), at)
			}
			n++
		}
	}
	if n != b.Distinct() {
		return "IndexOn holds other entries than the bag's rows"
	}
	if again, applied := b.IndexOn([]int{0}); again != ix || applied != 0 {
		return "a second IndexOn did not return the same, already synced index"
	}
	return ""
}

// tableFault describes what is wrong with a bucket's position table, or
// returns "": a bucket of more than scanMax rows has one, one of fewer
// than scanMax/2 has none, and a table is at most half full, holds each
// position once, and every probe for a row reaches the slot holding it.
func tableFault(bk *bucket) string {
	n := len(bk.rows)
	switch {
	case bk.tab == nil && n > scanMax:
		return fmt.Sprintf("a bucket of %d rows has no position table", n)
	case bk.tab == nil:
		return ""
	case n < scanMax/2:
		return fmt.Sprintf("a bucket of %d rows kept its position table", n)
	case 2*n > len(bk.tab):
		return fmt.Sprintf("a position table of %d slots holds %d rows", len(bk.tab), n)
	}
	seen := make([]bool, n)
	for _, v := range bk.tab {
		if v == 0 {
			continue
		}
		if v < 0 || int(v) > n || seen[v-1] {
			return fmt.Sprintf("a position table holds %d twice or past its %d rows", v, n)
		}
		seen[v-1] = true
	}
	for i, e := range bk.rows {
		if at, s, _ := bk.find(e.p); at != i || s < 0 || int(bk.tab[s]) != i+1 {
			return fmt.Sprintf("the row at position %d of %d is not reached through the position table (found at %d)", i, n, at)
		}
	}
	return ""
}

// bagTableFault describes what is wrong with t, one of b's tables, or
// returns "": it has a position table exactly when its room is past
// smallMax, of two slots per entry of room, holding each position once
// and nothing else; every entry's hash is its tuple's; every entry is
// found by find, through the slot that holds it; and its counts, if it
// has any, are two words for each entry of room.
func bagTableFault(b *Bag, t *table) string {
	c, sl, n := cap(t.p), t.slots(), len(t.p)
	switch cs := t.counts(); {
	case len(sl) != slotsFor(c):
		return fmt.Sprintf("a table of room %d has %d slots", c, len(sl))
	case len(cs) != 0 && len(cs) != 2*c:
		return fmt.Sprintf("a table of room %d has %d count words", c, len(cs))
	}
	seen, filled := make([]bool, n), 0
	for _, v := range sl {
		if v == 0 {
			continue
		}
		if int(v) > n || seen[v-1] {
			return fmt.Sprintf("a position table holds %d twice or past its %d entries", v, n)
		}
		seen[v-1] = true
		filled++
	}
	if len(sl) > 0 && filled != n {
		return fmt.Sprintf("a position table holds %d positions for %d entries", filled, n)
	}
	for i, p := range t.p {
		tu := b.tupleAt(p)
		if t.aux[i] != hashOf(tu) {
			return fmt.Sprintf("the entry at %d of %d stores hash %x for %v, whose hash is %x", i, n, t.aux[i], tu, hashOf(tu))
		}
		if at, s := b.find(t, t.aux[i], tu); at != i || len(sl) > 0 && int(sl[s]) != i+1 {
			return fmt.Sprintf("the entry at %d of %d is found at %d", i, n, at)
		}
	}
	return ""
}

// TestPropEachIsArrivalOrder: a flat bag's Each visits its tuples in the
// order they first arrived, from every start and through every room a
// bag grows into — small, a position table, larger ones; a change of
// count moves nothing; a removal moves only the last entry, into the
// removed one's place; and every table stays sound (bagTableFault).
func TestPropEachIsArrivalOrder(t *testing.T) {
	inOrder := func(b *Bag, want []schema.Tuple) string {
		var got []schema.Tuple
		b.Each(func(tu schema.Tuple, _ int) { got = append(got, tu) })
		if len(got) != len(want) {
			return fmt.Sprintf("Each visited %d tuples, want %d", len(got), len(want))
		}
		for i := range got {
			if !got[i].Equal(want[i]) {
				return fmt.Sprintf("Each visited %v at %d, want %v", got[i], i, want[i])
			}
		}
		return bagTableFault(b, &b.table)
	}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		for _, start := range starts {
			b, order := start(), []schema.Tuple(nil)
			for i, n := 0, 1+r.Intn(60); i < n; i++ {
				tu := schema.Row(i, r.Intn(3))
				b.Add(tu, 1+r.Intn(2))
				order = append(order, tu)
			}
			for k := 0; k < 5; k++ {
				tu := order[r.Intn(len(order))]
				b.Add(tu, 2).Add(tu, -1-r.Intn(2)) // never to 0
			}
			if msg := inOrder(b, order); msg != "" {
				t.Logf("seed %d, inserts: %s", seed, msg)
				return false
			}
			for len(order) > 0 && r.Intn(8) != 0 {
				i := r.Intn(len(order))
				b.Remove(order[i], b.Count(order[i]))
				last := len(order) - 1
				order[i] = order[last]
				order = order[:last]
				if msg := inOrder(b, order); msg != "" {
					t.Logf("seed %d, a removal: %s", seed, msg)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, qcfg); err != nil {
		t.Error(err)
	}
}

// window is b's journal window: the smallest one while nothing has
// indexed b yet.
func window(b *Bag) int {
	if b.dx == nil {
		return 256
	}
	return b.dx.jcap
}

// indexContents flattens an index to index key -> tuple key -> count,
// the order-free form two equivalent indexes share, over two bags as
// well as one: an entry's tuple key is encoded from the tuple it holds.
func indexContents(ix *Index) map[string]map[string]int {
	out := map[string]map[string]int{}
	for k, i := range ix.m {
		out[k] = map[string]int{}
		for _, e := range ix.buckets[i].rows {
			out[k][ix.src.tupleAt(e.p).Key()] += e.count
		}
	}
	return out
}

func TestPropApplyDeltaMatchesMonusUnion(t *testing.T) {
	// del and add are arbitrary: they overlap each other and b, and del
	// need not be a sub-bag of b (weak minimality allows both).
	prop := func(x, d, a genBag) bool {
		if msg := checkApplyDelta(x.B, d.B, a.B); msg != "" {
			t.Log(msg)
			return false
		}
		return true
	}
	if err := quick.Check(prop, qcfg); err != nil {
		t.Error(err)
	}
	// A second delta over the same journaled bag: the index follows a
	// sequence of applies, not just the first.
	seq := func(x, d1, a1, d2, a2 genBag) bool {
		b := x.B.Clone()
		ix := NewIndex(b, []int{0})
		b.ApplyDelta(d1.B, a1.B).ApplyDelta(d2.B, a2.B)
		want := UnionAll(Monus(UnionAll(Monus(x.B, d1.B), a1.B), d2.B), a2.B)
		_, ok := ix.Sync(b)
		return ok && b.Equal(want) &&
			reflect.DeepEqual(indexContents(ix), indexContents(NewIndex(b, []int{0})))
	}
	if err := quick.Check(seq, qcfg); err != nil {
		t.Error(err)
	}
}

func TestPropIndexOnFollowsEveryMutation(t *testing.T) {
	prop := func(x, d1, a1, d2, a2 genBag) bool {
		b := x.B.Clone()
		steps := []func(){
			func() {},
			func() { b.ApplyDelta(d1.B, a1.B) },
			func() { b.AddBag(a2.B) },
			func() { // more single changes than the journal window holds, in genBag's arity
				for i := 0; i < 2*window(b)+3; i++ {
					b.Add(schema.Row(i%7), 1+i%2)
					b.Remove(schema.Row((i+3)%7), 1)
				}
			},
			func() { b.Clear() },
			func() { b.ApplyDelta(d2.B, a1.B) },
		}
		for i, step := range steps {
			step()
			if msg := checkIndexOn(b); msg != "" {
				t.Logf("after step %d: %s", i, msg)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropIndexAcrossTheScanLimit drives one hot key's bucket of the
// bag's own index from empty to a few thousand rows and back to empty —
// across the scan limit both ways and through every table size, up and
// down — by interleaved Add, Remove and ApplyDelta (fresh tuples, some
// with a removed row's values, so a new pointer; removals from anywhere
// in the bucket), then a burst longer than the journal window, and at
// last a Clear and a refill; two cold keys keep a few rows beside it.
// FuzzBagOps never gets a key past a handful of rows. After each sync,
// checkIndexOn holds and a join through the index, plain and read as
// b ∸ σ(sub), equals one through an index built fresh. The slots the
// whole drive touched are bounded per journal entry.
func TestPropIndexAcrossTheScanLimit(t *testing.T) {
	const peak = 2000
	pos := []int{0}
	probe := New().Add(row(0), 2).Add(row(1), 1).Add(row(2), 1)
	even := func(t schema.Tuple) bool { return t[1].AsInt()%2 == 0 }
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b, cold := New(), 0
		refillCold := func() {
			for i := 0; i < 3; i++ {
				b.Add(row(1, i), 1).Add(row(2, i), 2)
			}
			cold = 6
		}
		refillCold()
		hot := func() int { return b.Distinct() - cold }
		next, ids := 0, []int(nil)   // the next fresh id; ids added, some removed since
		pick := func() (int, bool) { // an id b holds a hot row of
			for len(ids) > 0 {
				i := rng.Intn(len(ids))
				if id := ids[i]; b.Count(row(0, id)) > 0 {
					return id, true
				}
				ids[i] = ids[len(ids)-1]
				ids = ids[:len(ids)-1]
			}
			return 0, false
		}
		fresh := func() int { // a new id, or again one that may have been removed
			id := next
			if len(ids) > 0 && rng.Intn(4) == 0 {
				id = ids[rng.Intn(len(ids))]
			} else {
				next++
			}
			ids = append(ids, id)
			return id
		}
		step := func(pAdd float64) {
			switch r := rng.Float64(); {
			case r < 0.1:
				del, add := New().Add(row(0, -1), 1), New()
				k := rng.Intn(4)
				for i := 0; i < k; i++ {
					if id, ok := pick(); ok {
						del.Add(row(0, id), 1+rng.Intn(2))
					}
				}
				for i := 0; i < k; i++ { // after the picks: a fresh id is not in b yet
					add.Add(row(0, fresh()), 1)
				}
				b.ApplyDelta(del, add)
			case r < 0.1+pAdd:
				b.Add(row(0, fresh()), 1+rng.Intn(2))
			default:
				if id, ok := pick(); ok {
					n := 1
					if rng.Intn(2) == 0 {
						n = b.Count(row(0, id))
					}
					b.Remove(row(0, id), n)
				}
			}
		}
		check := func(what string) {
			t.Helper()
			if msg := checkIndexOn(b); msg != "" {
				t.Fatalf("seed %d, %s, %d hot rows: %s", seed, what, hot(), msg)
			}
			ix, _ := b.IndexOn(pos)
			built := newIndex(b, pos)
			sub := New().Add(row(0, -2), 1)
			for k := 0; k < 8; k++ {
				if id, ok := pick(); ok {
					sub.Add(row(0, id), 1+rng.Intn(3))
				}
			}
			for _, s := range []*Bag{nil, sub} {
				got, want := New(), New()
				(&Join{Keep: even}).Indexed(got, probe, pos, ix, s, false, nil)
				(&Join{Keep: even}).Indexed(want, probe, pos, built, s, false, nil)
				if !got.Equal(want) {
					t.Fatalf("seed %d, %s, %d hot rows, sub %v: the join through the bag's index = %v, through a fresh one %v", seed, what, hot(), s != nil, got, want)
				}
			}
		}
		// Near the scan limit every change is synced and checked on its
		// own; past it, one in 199.
		drive := func(what string, pAdd float64, done func() bool) {
			for op := 0; !done(); op++ {
				step(pAdd)
				if hot() < 4*scanMax || op%199 == 0 {
					check(what)
				}
			}
			check(what)
		}
		check("empty")
		drive("growing", 0.65, func() bool { return hot() >= peak })
		for i := 0; i < 2*window(b)+3; i++ {
			step(0.5)
		}
		check("after a burst past the journal window")
		drive("shrinking", 0.25, func() bool { return hot() == 0 })
		drive("growing again", 0.65, func() bool { return hot() >= 10*scanMax })
		b.Clear()
		cold = 0
		check("cleared")
		refillCold()
		drive("refilled", 0.65, func() bool { return hot() >= 4*scanMax })

		ix, _ := b.IndexOn(pos)
		t.Logf("seed %d: %d table slots and scanned rows touched over %d journal entries", seed, ix.steps, b.dx.ver)
		if ix.steps > 8*int(b.dx.ver) {
			t.Fatalf("seed %d: %d table slots and scanned rows touched over %d journal entries, want at most 8 each", seed, ix.steps, b.dx.ver)
		}
	}
}

// genLevels is a quick.Generator for a two-level bag L and a flat bag F
// of the same contents: a random base of 2-column tuples, frozen under
// a Clone by Prepare, then random writes into the overlay — updates and
// deletions of base entries (tombstones among them), inserts, some
// through an overlay a Clone made the next write copy. The base is a map
// from the start: a Clone of a small bag is a copy, which nothing
// shares, so Prepare would leave it flat.
type genLevels struct{ L, F *Bag }

// Generate implements quick.Generator.
func (genLevels) Generate(r *rand.Rand, _ int) reflect.Value {
	tuple := func() schema.Tuple { return schema.Row(r.Intn(4), r.Intn(3)) }
	base := newTabled()
	for n := 1 + r.Intn(10); n > 0; n-- { // not empty: Prepare(0) then goes two-level
		base.Add(tuple(), 1+r.Intn(3))
	}
	l := base.Clone()
	l.Adopt(l.Prepare(0))
	f := New().AddBag(base)
	for n := r.Intn(12); n > 0; n-- {
		if r.Intn(5) == 0 {
			l.Clone()
		}
		tu, c := tuple(), r.Intn(7)-3
		l.Add(tu, c)
		f.Add(tu, c)
	}
	return reflect.ValueOf(genLevels{L: l, F: f})
}

// contents reads a bag's entries straight off its tables — the overlay
// over the base, a count of 0 deleting — past every reader under test.
func contents(b *Bag) map[string]int {
	out := map[string]int{}
	read := func(t *table) {
		for i, p := range t.p {
			out[b.tupleAt(p).Key()] = t.count(i)
		}
	}
	if b.lv != nil {
		read(&b.lv.base)
	}
	read(&b.table)
	for k, n := range out {
		if n == 0 {
			delete(out, k)
		}
	}
	return out
}

// TestPropTwoLevelReadsLikeFlat runs every reader of the package on
// operands in every representation — two-level, and the small, outgrown
// and tabled twins of the flat bag of the same contents — in every
// position and pairing, and compares the answers with the flat bags':
// the pure operators (and AddMonus, which reads two), Join.Indexed —
// holding its operands, and half of the rows it emits under pointers of
// their own — and Join.Hash, NewIndex and IndexOn, Each, EachApplied,
// EachOrdered, Tuples, Equal, SubBagOf, Count, Distinct and Len. A bag
// is read only through get and each; a reader that went past them would
// see a shadowed base entry or a tombstone here, or miss a small bag's
// slots.
func TestPropTwoLevelReadsLikeFlat(t *testing.T) {
	even := func(tu schema.Tuple) bool { return tu[0].AsInt()%2 == 0 }
	// held is what a join of a with b holds: b, a, and the even-keyed
	// rows of both products, whatever the join emits of them.
	held := func(a, b *Bag) []*Bag {
		return []*Bag{b, a, Select(Product(a, b), even), Select(Product(b, a), even)}
	}
	heldJoin := func(j Join, probe, b, sub *Bag, held []*Bag, buildLeft bool) *Bag {
		out, _ := indexed(&j, probe, []int{0}, NewIndex(b, []int{0}), sub, buildLeft, held...)
		if msg := checkHeld(out, held); msg != "" {
			t.Error(msg)
		}
		return out
	}
	join := func(j Join, a, b *Bag, buildLeft bool) *Bag { return heldJoin(j, a, b, nil, held(a, b), buildLeft) }
	// b joined with itself through its index, read as b ∸ σ_Keep(sub)
	joinSub := func(j Join, b, sub *Bag) *Bag { return heldJoin(j, b, b, sub, held(sub, b), false) }
	binary := map[string]func(a, b *Bag) *Bag{
		"UnionAll":  UnionAll,
		"Monus":     Monus,
		"AddMonus":  func(a, b *Bag) *Bag { return Of(schema.Row(0, 0)).AddMonus(a, b) },
		"Min":       Min,
		"MinWithin": func(a, b *Bag) *Bag { return MinWithin(a, b, a, b) },
		"Max":       Max,
		"Except":    Except,
		"Product":   Product,
		"ProductSelect": func(a, b *Bag) *Bag {
			return ProductSelect(a, b, func(tu schema.Tuple) bool { return tu[1].Equal(tu[3]) })
		},
		"Applied":         func(a, b *Bag) *Bag { return Applied(a, b, b, nil) },
		"Applied, sliced": func(a, b *Bag) *Bag { return Applied(a, b, a, even) },
		"Join.Indexed":    func(a, b *Bag) *Bag { return join(Join{}, a, b, false) },
		"Join.Indexed, L": func(a, b *Bag) *Bag { return join(Join{Left: even}, a, b, true) },
		"Join.Indexed, Π": func(a, b *Bag) *Bag { return join(Join{Project: []int{3, 0}}, a, b, false) },
		"Join.Indexed, ∸": func(a, b *Bag) *Bag { return joinSub(Join{Keep: even}, b, a) },
		"Join.Hash":       func(a, b *Bag) *Bag { out, _, _ := hash(&Join{Right: even}, a, []int{1}, b, []int{0}); return out },
		"DupElim":         func(a, _ *Bag) *Bag { return DupElim(a) },
		"Select":          func(a, _ *Bag) *Bag { return Select(a, even) },
		"Project":         func(a, _ *Bag) *Bag { return Project(a, func(tu schema.Tuple) schema.Tuple { return tu[1:] }) },
		"Each": func(a, _ *Bag) *Bag {
			out := New()
			a.Each(func(tu schema.Tuple, n int) { out.Add(tu, n) })
			return out
		},
		"EachApplied": func(a, b *Bag) *Bag {
			out := New()
			a.EachApplied(b, a, nil, func(tu schema.Tuple, n int) { out.Add(tu, n) })
			return out
		},
	}
	rendered := func(b *Bag) string {
		var sb strings.Builder
		b.EachOrdered(func(tu schema.Tuple, n int) { fmt.Fprintf(&sb, "%v×%d ", tu, n) })
		return fmt.Sprint(b.Tuples(), sb.String())
	}
	// forms builds g's contents anew in every representation, so that no
	// reader sees what an earlier one left (an index asked of a twin).
	forms := func(g genLevels) []*Bag { return append([]*Bag{g.L}, twins(g.F)...) }
	kind := func(b *Bag) string {
		switch {
		case b.small():
			return "small"
		case b.lv != nil:
			return "two-level"
		}
		return "table"
	}
	prop := func(x, y genLevels) bool {
		if x.L.lv == nil || y.L.lv == nil {
			t.Log("the generator built a flat bag")
			return false
		}
		fail := func(format string, args ...any) bool {
			t.Logf(format, args...)
			return false
		}
		for name, op := range binary {
			want := contents(op(x.F, y.F))
			for _, a := range forms(x) {
				for _, b := range forms(y) {
					if got := contents(op(a, b)); !maps.Equal(got, want) {
						return fail("%s of a %s and a %s bag: %v, flat operands give %v", name, kind(a), kind(b), got, want)
					}
				}
			}
		}
		for _, a := range forms(x) {
			for _, b := range forms(y) {
				if a.Equal(b) != x.F.Equal(y.F) || a.SubBagOf(b) != x.F.SubBagOf(y.F) || b.SubBagOf(a) != y.F.SubBagOf(x.F) {
					return fail("Equal or SubBagOf of a %s and a %s bag disagree with flat operands", kind(a), kind(b))
				}
			}
		}
		for _, g := range []genLevels{x, y} {
			f := g.F
			for _, l := range forms(g) {
				if !l.Equal(f) || !f.Equal(l) || !l.SubBagOf(f) || !f.SubBagOf(l) {
					return fail("a %s bag and its flat twin are not Equal: %v, %v", kind(l), contents(l), contents(f))
				}
				if l.Len() != f.Len() || l.Distinct() != f.Distinct() || rendered(l) != rendered(f) {
					return fail("Len, Distinct, Tuples or EachOrdered of a %s bag: %d/%d %s, flat %d/%d %s",
						kind(l), l.Len(), l.Distinct(), rendered(l), f.Len(), f.Distinct(), rendered(f))
				}
				for i := 0; i < 4; i++ {
					for j := 0; j < 3; j++ {
						if tu := schema.Row(i, j); l.Count(tu) != f.Count(tu) {
							return fail("Count(%v) of a %s bag = %d, flat %d", tu, kind(l), l.Count(tu), f.Count(tu))
						}
					}
				}
				for _, pos := range [][]int{{0}, {1, 0}, nil} {
					if !reflect.DeepEqual(indexContents(NewIndex(l, pos)), indexContents(NewIndex(f, pos))) {
						return fail("NewIndex on %v differs from the flat twin's", pos)
					}
				}
				lix, _ := l.IndexOn([]int{1})
				fix, _ := f.IndexOn([]int{1})
				if !reflect.DeepEqual(indexContents(lix), indexContents(fix)) {
					return fail("IndexOn differs from the flat twin's")
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
