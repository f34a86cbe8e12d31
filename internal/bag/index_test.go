package bag

import (
	"testing"

	"dvm/internal/schema"
)

func eqJoin(lpos, rpos int, lw int) func(schema.Tuple) bool {
	return func(t schema.Tuple) bool { return t[lpos].Equal(t[lw+rpos]) }
}

func TestJoinIndexedMatchesProductSelect(t *testing.T) {
	left := New().
		Add(row("a", 1), 2).
		Add(row("b", 2), 3).
		Add(row("c", 1), 1)
	right := New().
		Add(row(1, "x"), 4).
		Add(row(2, "y"), 1).
		Add(row(3, "z"), 5)
	pred := eqJoin(1, 0, 2) // left[1] == right[0]

	want := ProductSelect(left, right, pred)

	// Index the right side, probe with the left.
	ix := NewIndex(right, []int{0})
	got, probed := JoinIndexed(left, []int{1}, ix, false, pred)
	if !got.Equal(want) {
		t.Fatalf("probe-left join = %v, want %v", got, want)
	}
	if probed >= left.Distinct()*right.Distinct() {
		t.Fatalf("probed %d pairs, expected fewer than the %d a rescan pays",
			probed, left.Distinct()*right.Distinct())
	}

	// Index the left side, probe with the right; output column order
	// must still be left ++ right.
	ixl := NewIndex(left, []int{1})
	got2, _ := JoinIndexed(right, []int{0}, ixl, true, pred)
	if !got2.Equal(want) {
		t.Fatalf("probe-right join = %v, want %v", got2, want)
	}
}

func TestIndexValidity(t *testing.T) {
	b := New().Add(row("a", 1), 1)
	ix := NewIndex(b, []int{0})
	if n, ok := ix.Sync(b); !ok || n != 0 {
		t.Fatalf("fresh index must be in step with its source bag, got applied=%d ok=%v", n, ok)
	}
	other := New().Add(row("a", 1), 1)
	if _, ok := ix.Sync(other); ok {
		t.Fatal("index must not sync against a different bag, even with equal contents")
	}
	b.Add(row("b", 2), 1)
	b.Remove(row("b", 2), 1)
	if n, ok := ix.Sync(b); !ok || n != 2 {
		t.Fatalf("index must follow Add and Remove through the journal, got applied=%d ok=%v", n, ok)
	}
	b.Clear()
	if _, ok := ix.Sync(b); ok {
		t.Fatal("a free-standing index must be invalidated by Clear")
	}
	// ... and by falling out of the journal window, unlike the bag's own.
	ix = NewIndex(b, []int{0})
	for i := 0; i <= window(b); i++ {
		b.Add(row("c", i), 1)
	}
	if _, ok := ix.Sync(b); ok {
		t.Fatal("a free-standing index must be invalidated once the window has moved past it")
	}
}

func TestIndexKeyMatchesProjectKey(t *testing.T) {
	// AppendKeyAt must agree byte-for-byte with Project().Key() — the
	// index relies on that to find probe tuples built the slow way.
	tup := schema.Row("k", 42, 3.5, true, nil)
	pos := []int{1, 3, 0}
	got := string(tup.AppendKeyAt(nil, pos))
	want := tup.Project(pos).Key()
	if got != want {
		t.Fatalf("AppendKeyAt = %q, Project().Key() = %q", got, want)
	}
	if full := string(tup.AppendKey(nil)); full != tup.Key() {
		t.Fatalf("AppendKey = %q, Key() = %q", full, tup.Key())
	}
}

func TestJoinIndexedEmptySides(t *testing.T) {
	empty := New()
	b := New().Add(row(1, "x"), 2)
	ix := NewIndex(b, []int{0})
	out, probed := JoinIndexed(empty, []int{0}, ix, false, func(schema.Tuple) bool { return true })
	if !out.Empty() || probed != 0 {
		t.Fatalf("empty probe side: got %v probed=%d", out, probed)
	}
	ixe := NewIndex(empty, []int{0})
	out, probed = JoinIndexed(b, []int{0}, ixe, true, func(schema.Tuple) bool { return true })
	if !out.Empty() || probed != 0 {
		t.Fatalf("empty indexed side: got %v probed=%d", out, probed)
	}
}

// TestIndexSyncIndependentOfBucketSize pins the cost of catching an
// index up to a change count, not a bucket size: the same 1000 changes
// to one key's bucket touch about as many position-table slots whether
// that bucket holds 20 or 20000 entries (a linear scan for the changed
// entry would touch ~10000 per change in the large one), and a small
// constant number per change. Both tables are between a quarter and
// half full, where a linear probe reads a slot or two. Counted in slots
// touched, so the test does not depend on a clock.
func TestIndexSyncIndependentOfBucketSize(t *testing.T) {
	const changes = 1000
	stepsFor := func(bucket int) int {
		b := New()
		for i := 0; i < bucket; i++ {
			b.Add(row(7, i), 1) // one hot key
		}
		b.Add(row(8, 0), 1)
		ix, built := b.IndexOn([]int{0})
		if built != bucket+1 {
			t.Fatalf("first IndexOn built %d entries, want %d", built, bucket+1)
		}
		// The small bag's journal window is shorter than the change run,
		// so part of the catching up is the bag's own, before the window
		// moves on; steps counts that part too.
		for i := 0; i < changes/2; i++ {
			b.Remove(row(7, i%20), 1) // swap-remove from inside the hot bucket
			b.Add(row(7, i%20), 1)    // and back in, at its end
		}
		if again, _ := b.IndexOn([]int{0}); again != ix {
			t.Fatalf("IndexOn after %d changes returned another index", changes)
		}
		if msg := checkIndexOn(b); msg != "" {
			t.Fatal(msg)
		}
		return ix.steps
	}
	small, large := stepsFor(20), stepsFor(20000)
	t.Logf("1000 changes touched %d slots in a 20-entry bucket, %d in a 20000-entry one", small, large)
	// A removal probes for its row, reads the rest of the cluster and
	// probes for the moved row; an insertion probes once, stopping on
	// the empty slot it then fills: 2.8 to 3.1 slots a change
	// measured, in either bucket size (go1.24, linux/amd64).
	if 2*large > 3*small || 2*small > 3*large {
		t.Fatalf("1000 changes touched %d slots in a 20-entry bucket but %d in a 20000-entry one", small, large)
	}
	if large > 6*changes {
		t.Fatalf("1000 changes touched %d slots, want at most 6 per change", large)
	}
}

// TestIndexRemoveReleasesEntry checks the swap-remove zeroes the slot it
// vacates: the bucket's backing array must not keep a removed tuple
// reachable.
func TestIndexRemoveReleasesEntry(t *testing.T) {
	b := New().Add(row(1, "a"), 1).Add(row(1, "b"), 1).Add(row(1, "c"), 1)
	ix, _ := b.IndexOn([]int{0})
	b.Remove(row(1, "a"), 1)
	b.IndexOn([]int{0})
	for _, k := range ix.m {
		bucket := ix.buckets[k].rows
		if len(bucket) != 2 {
			t.Fatalf("bucket holds %d entries after one removal, want 2", len(bucket))
		}
		if vacated := bucket[:3][2]; vacated != (indexEntry{}) {
			t.Fatalf("vacated slot still holds %v", vacated)
		}
	}
}

// TestHashJoinOnlyReads checks the throw-away join indexes the smaller
// side, agrees with the nested-loop join, and leaves both operands as
// it found them: no journal, no index.
func TestHashJoinOnlyReads(t *testing.T) {
	left := New().Add(row("a", 1), 2).Add(row("b", 2), 3).Add(row("c", 1), 1)
	right := New().Add(row(1, "x"), 4).Add(row(2, "y"), 1)
	pred := eqJoin(1, 0, 2)
	got, probed, built := hash(&Join{Cross: pred}, left, []int{1}, right, []int{0})
	if want := ProductSelect(left, right, pred); !got.Equal(want) {
		t.Fatalf("Join.Hash = %v, want %v", got, want)
	}
	if built != right.Distinct() || probed != 3 {
		t.Fatalf("built %d probed %d, want the smaller side (%d) built and 3 pairs probed", built, probed, right.Distinct())
	}
	if left.dx != nil || right.dx != nil || !left.small() || !right.small() {
		t.Fatal("Join.Hash switched on a journal, registered an index or gave a small operand a position table")
	}
}

// TestThrowAwayIndexHoldsOnlyWhatCanMatch: Join.Hash indexes only the
// rows of its build side that pass that side's own conjuncts, since a
// row they reject matches no probe row. 1 000 customers, every fifth
// scoring High, joined on custId with 5 000 sales, each way round: the
// index holds the 200 High customers, Hash reports 200 built, and the
// join equals the same kernel's over an index of all 1 000 (the kernel
// runs the conjunct on every bucket row anyway).
func TestThrowAwayIndexHoldsOnlyWhatCanMatch(t *testing.T) {
	cust, sales := New(), New()
	for i := 0; i < 1000; i++ {
		score := "Low"
		if i%5 == 0 {
			score = "High"
		}
		cust.Add(row(i, score), 1)
	}
	for i := 0; i < 5000; i++ {
		sales.Add(row(i%1000, i), 1)
	}
	high := func(tu schema.Tuple) bool { return tu[1].Equal(schema.Str("High")) }
	early := func(tu schema.Tuple) bool { return tu[1].Compare(schema.Int(4000)) < 0 }
	ix, n := probeIndex(cust, []int{0}, high)
	held := 0
	for _, bk := range ix.buckets {
		held += len(bk.rows)
	}
	if n != 200 || held != 200 || len(ix.m) != 200 {
		t.Fatalf("the index of the High customers reports %d rows and holds %d under %d keys, want 200", n, held, len(ix.m))
	}
	full := NewIndex(cust, []int{0})
	for _, buildLeft := range []bool{true, false} {
		// The customer side is the smaller: Hash builds on it either way.
		j, l, r := &Join{Left: high, Right: early, Project: []int{0, 1, 3}}, cust, sales
		if !buildLeft {
			j, l, r = &Join{Left: early, Right: high, Project: []int{0, 1, 3}}, sales, cust
		}
		got, _, built := hash(j, l, []int{0}, r, []int{0})
		want, _ := indexed(j, sales, []int{0}, full, nil, buildLeft)
		if built != 200 || !got.Equal(want) || want.Len() != 800 {
			t.Fatalf("customers on the left %v: Hash built %d and joined %d rows, want 200 built and the %d of the unfiltered index",
				buildLeft, built, got.Len(), want.Len())
		}
	}
}

// TestIndexAddressesByTuplePointer: a bag's own index finds each entry
// by the tuple pointer the bag stores, and every journal entry carries
// that pointer. Three changes, each inside one journal window and synced
// before the next: a row deleted and added back as a fresh tuple (same
// key, new pointer), a delete from the front of a bucket (the last entry
// is swapped into its place), and an arity-0 bag, whose one row has a
// nil pointer. After each Sync every entry is found by its pointer at
// its position, the entries are the bag's rows, and a join through the
// index — plain, and read as b ∸ sub — equals one through an index built
// fresh.
func TestIndexAddressesByTuplePointer(t *testing.T) {
	check := func(what string, b *Bag, pos []int, probe *Bag, probePos []int, sub *Bag) {
		t.Helper()
		ix, _ := b.IndexOn(pos)
		n := 0
		for _, k := range ix.m {
			bk := &ix.buckets[k]
			for i, e := range bk.rows {
				if at, _, _ := bk.find(e.p); at != i {
					t.Fatalf("%s: entry %v at position %d is found at %d", what, ix.src.tupleAt(e.p), i, at)
				}
				if tu := b.tupleAt(e.p); b.get(hashOf(tu), tu).p != e.p {
					t.Fatalf("%s: entry %v holds another pointer than the bag's", what, ix.src.tupleAt(e.p))
				}
				n++
			}
		}
		if n != b.Distinct() {
			t.Fatalf("%s: %d entries for %d rows", what, n, b.Distinct())
		}
		fresh := NewIndex(b, pos)
		for _, s := range []*Bag{nil, sub} {
			got, want := New(), New()
			(&Join{}).Indexed(got, probe, probePos, ix, s, false, nil)
			(&Join{}).Indexed(want, probe, probePos, fresh, s, false, nil)
			if !got.Equal(want) {
				t.Fatalf("%s: join through the synced index = %v, through a fresh one %v", what, got, want)
			}
		}
	}
	// find looks p up in the bucket under key k.
	find := func(ix *Index, k schema.Tuple, p *schema.Value) int {
		bk := &ix.buckets[ix.m[k.Key()]]
		at, _, _ := bk.find(p)
		return at
	}

	b := newTabled()
	for _, v := range []string{"a", "b", "c", "d"} {
		b.Add(row(1, v), 1)
	}
	b.Add(row(2, "x"), 2)
	probe := New().Add(row(1), 1).Add(row(2), 3)
	sub := New().Add(row(1, "b"), 1).Add(row(2, "x"), 1)
	pos := []int{0}
	ix, _ := b.IndexOn(pos)
	check("built", b, pos, probe, pos, sub)

	old := row(1, "a")
	oldPtr := b.get(hashOf(old), old).p
	fresh := row(1, "a")
	b.Remove(old, 1)
	b.Add(fresh, 1)
	check("deleted and added back", b, pos, probe, pos, sub)
	if find(ix, row(1), oldPtr) >= 0 {
		t.Fatal("the deleted tuple's pointer is still found")
	}
	if find(ix, row(1), fresh.Ptr()) < 0 {
		t.Fatal("the added-back tuple is not found by its own pointer")
	}

	bucket := ix.bucket([]byte(row(1).Key()))
	front, last := bucket[0], bucket[len(bucket)-1]
	b.Remove(b.tupleAt(front.p), 1)
	check("front of the bucket deleted", b, pos, probe, pos, sub)
	if at := find(ix, row(1), last.p); at != 0 {
		t.Fatalf("the bucket's last entry was moved to position %d, want 0", at)
	}

	z := newTabled()
	z.Add(schema.Tuple{}, 2)
	zprobe := New().Add(row(7), 1)
	zix, _ := z.IndexOn(nil)
	z.Remove(schema.Tuple{}, 2)
	z.Add(schema.Tuple{}, 1)
	z.Add(schema.Tuple{}, 1)
	check("arity 0", z, nil, zprobe, nil, New().Add(schema.Tuple{}, 1))
	if at := find(zix, schema.Tuple{}, nil); at != 0 || len(zix.buckets[0].rows) != 1 {
		t.Fatalf("an arity-0 bag's row is found at %d among %d", at, len(zix.buckets[0].rows))
	}
	if got := z.dx.ver - zix.ver; got != 0 || len(z.dx.jour) == 0 {
		t.Fatalf("the arity-0 changes were not applied through the journal (%d behind, %d journaled)", got, len(z.dx.jour))
	}
}
