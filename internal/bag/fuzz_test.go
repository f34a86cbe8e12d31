package bag

import (
	"fmt"
	"maps"
	"testing"

	"dvm/internal/schema"
)

// FuzzBagOps interprets the input as a program of Add/Remove/Clear
// operations (plus ApplyDelta, bursts longer than the journal window,
// look-ups of the bag's own index, Clones, the writer's Prepare and
// Adopt, so two-level bags, overlay copies, tombstones and folds are
// fuzzed too, and joins that read a bag's own index through the other
// handle as a subtrahend and hold bags drawn from it) executed against
// two Bag
// handles and a plain map[string]int reference model for each (see
// runHandles), checking both handles against their models after every
// step; then it checks the first handle's own index against a freshly
// built one, and the algebraic laws of Section 2.1 that the DEL/ADD
// differentials depend on. The program runs three times, its bags
// starting small, grown past their small room and with a position
// table (starts), so each grows, shrinks and is cloned with and without
// one; and each time once more
// over arity-0 bags, whose one tuple is stored as a nil pointer.
func FuzzBagOps(f *testing.F) {
	addBagSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, start := range starts {
			bagLaws(t, data, start)
		}
	})
}

// FuzzBagOpsColliding is FuzzBagOps under a hash narrowed to two bits
// (hashMask), so that among any five of runHandles' 25 tuples two share
// a hash: a small table's scan meets entries of its hash that hold other
// tuples, a position table's probes all start from one home and walk one
// cluster, and every program reaches colliding entries through the
// paths that write and read a bag — overlay tombstones over a base
// entry of a shared hash, removals that shift the cluster back,
// Prepare's copies and folds, Adopt, Clear, Build and its duplicate
// check, and both output paths of Join.Indexed, with their lookups in
// the holders. A lookup that took a hash for its tuple without comparing
// the two fails here at once.
func FuzzBagOpsColliding(f *testing.F) {
	addBagSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		defer func(m uint32) { hashMask = m }(hashMask)
		hashMask = 3
		for _, start := range starts {
			bagLaws(t, data, start)
		}
	})
}

// addBagSeeds adds the seed programs both FuzzBagOps targets start from.
func addBagSeeds(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 0, 2, 1, 3})
	f.Add([]byte{1, 0, 0, 1, 0, 1, 9, 3, 3, 3})
	f.Add([]byte{0, 5, 1, 0, 5, 2, 2, 0, 5, 3, 255, 0, 0, 0})
	f.Add([]byte{0, 1, 2, 5, 0, 0, 6, 1, 0, 3, 1, 1, 6, 7, 2, 5, 0, 0, 7, 0, 0, 0, 2, 1})
	// Clone, then mutate, clear and index either side.
	f.Add([]byte{0, 1, 2, 0, 7, 3, 8, 0, 0, 0, 2, 1, 9, 0, 0, 7, 0, 0, 5, 0, 0, 9, 0, 0, 3, 1, 1})
	f.Add([]byte{0, 3, 3, 5, 0, 0, 8, 0, 0, 6, 3, 2, 9, 0, 0, 6, 3, 0, 7, 0, 0, 9, 0, 0, 8, 0, 0, 7, 0, 0})
	// Go two-level under a Clone and write: a tombstone written over
	// again, a tombstone kept, an insert. Clone the two-level bag and
	// write to the source, then to the clone through a copied overlay;
	// fold the clone (the kept tombstone must go); Clear.
	f.Add([]byte{0, 1, 2, 0, 2, 1, 0, 3, 3, 0, 4, 1, 8, 0, 0, 10, 0, 1, 3, 1, 3, 0, 1, 1, 3, 2, 3,
		0, 6, 1, 5, 0, 0, 8, 0, 0, 0, 7, 1, 9, 0, 0, 1, 8, 2, 10, 0, 15, 3, 3, 1, 9, 0, 0, 7, 0, 0})
	// Clone, change the clone, then join through the source's own index
	// read as b ∸ σ(clone) — keep-all and filtered — as b ∸ ∅ and as b;
	// once more after a write to b that the index catches up with.
	f.Add([]byte{0, 1, 2, 0, 6, 1, 0, 12, 3, 8, 0, 0, 9, 0, 0, 3, 1, 1, 0, 7, 2, 9, 0, 0,
		11, 2, 2, 11, 3, 3, 11, 4, 1, 11, 0, 0, 0, 8, 1, 11, 1, 3})
	// INT 2^53 and INT 2^53+1 in one small bag, and in its Clone, are two
	// entries: a slot is found by its hash and an exact comparison, not
	// by comparing float64 values.
	f.Add([]byte{0, 15, 1, 0, 20, 2, 0, 15, 1, 8, 0, 0, 9, 0, 0, 3, 20, 1, 0, 21, 1})
	// Ten tuples, so that under FuzzBagOpsColliding's four hashes six at
	// least share a hash with another; go two-level under a Clone, delete
	// the first five (tombstones of shared hashes in the overlay), insert
	// two again, and fold under a second Clone; write the Clone; Clear.
	f.Add([]byte{0, 0, 1, 0, 1, 1, 0, 2, 1, 0, 3, 1, 0, 4, 1, 0, 5, 1, 0, 6, 1, 0, 7, 1, 0, 8, 1, 0, 9, 1,
		8, 0, 0, 10, 0, 1, 3, 0, 1, 3, 1, 1, 3, 2, 1, 3, 3, 1, 3, 4, 1, 0, 0, 2, 0, 1, 2, 8, 0, 0, 10, 0, 2,
		9, 0, 0, 3, 5, 1, 0, 9, 3, 7, 0, 0})
	// All 25 tuples, two-level under a Clone; delete five and Clone
	// again, so that Prepare copies the overlay, tombstones included,
	// rather than fold; write; join through the index read as b ∸ σ(the
	// Clone); Clear.
	f.Add([]byte{0, 0, 1, 0, 1, 1, 0, 2, 1, 0, 3, 1, 0, 4, 1, 0, 5, 1, 0, 6, 1, 0, 7, 1, 0, 8, 1, 0, 9, 1,
		0, 10, 1, 0, 11, 1, 0, 12, 1, 0, 13, 1, 0, 14, 1, 0, 15, 1, 0, 16, 1, 0, 17, 1, 0, 18, 1, 0, 19, 1,
		0, 20, 1, 0, 21, 1, 0, 22, 1, 0, 23, 1, 0, 24, 1, 8, 0, 0, 10, 0, 1, 3, 0, 1, 3, 1, 1, 3, 2, 1,
		3, 3, 1, 3, 4, 1, 8, 0, 0, 10, 0, 0, 0, 2, 1, 11, 3, 2, 11, 4, 3, 7, 0, 0})
	// One tuple through 1 → 2 → 1 → 0 → 2 — across the first count other
	// than 1, both ways — in each place a bag keeps it. In a flat bag
	// with a position table, grown by nine others first:
	f.Add(append(fill(1, 10), crossing(0)...))
	// in a table a Clone shares, cloned before every step, so that each
	// step copies the table; then through the last Clone's copy;
	f.Add(append(append(fill(1, 10), interleave(crossing(0), 8, 0, 0)...), 9, 0, 0, 3, 0, 1, 3, 0, 1, 0, 0, 2))
	// in a two-level bag's overlay, over a unit (10) and a counted (11)
	// base entry: each tombstoned, re-inserted at 1, tombstoned,
	// re-inserted at 2; then cloned, so the overlay with its tombstone
	// and counted entries is copied, and folded;
	f.Add(append(append(fill(1, 11), 0, 11, 2, 8, 0, 0, 10, 0, 2),
		0, 10, 1, 3, 10, 1, 3, 10, 1, 0, 10, 1, 3, 10, 1, 0, 10, 2,
		3, 11, 1, 3, 11, 1, 0, 11, 2, 3, 11, 2, 0, 11, 1, 0, 11, 1,
		3, 10, 2, 8, 0, 0, 0, 10, 1, 0, 10, 1, 10, 0, 15, 7, 0, 0))
	// and among colliding entries: under FuzzBagOpsColliding's four
	// hashes, 20 tuples take them all, and the five that cross share
	// their hashes — in a flat bag, then in an overlay.
	colliding := fill(5, 25)
	for k := byte(0); k < 5; k++ {
		colliding = append(colliding, crossing(k)...)
	}
	f.Add(append(append(append(colliding, 8, 0, 0, 10, 0, 2), crossing(0)...), crossing(1)...))
}

// fill is a program adding the tuples from..to-1 once each.
func fill(from, to byte) []byte {
	var p []byte
	for k := from; k < to; k++ {
		p = append(p, 0, k, 1)
	}
	return p
}

// crossing is a program taking tuple k from 0 through 1, 2, 1, 0 to 2.
func crossing(k byte) []byte { return []byte{0, k, 1, 0, k, 1, 3, k, 1, 3, k, 1, 0, k, 2} }

// interleave puts op before every op of program p.
func interleave(p []byte, op ...byte) []byte {
	var out []byte
	for i := 0; i+2 < len(p); i += 3 {
		out = append(append(out, op...), p[i:i+3]...)
	}
	return out
}

// bagLaws is one run of FuzzBagOps, its bags begun by start.
func bagLaws(t *testing.T, data []byte, start func() *Bag) {
	t.Helper()
	runHandles(t, data, start, 0)
	hs := runHandles(t, data, start, 2)
	b := hs[0]
	if msg := checkIndexOn(b); msg != "" {
		t.Fatal(msg)
	}

	// Algebraic laws over (b, other), with other built from the tail
	// of the input read in reverse so the two bags differ.
	other := start()
	for i := len(data) - 1; i >= 2; i -= 3 {
		other.Add(schema.Row(int(data[i]%5), int(data[i-1]%5)), 1+int(data[i-2]%2))
	}

	// (b ⊎ o) ∸ o = b  (monus undoes union-all exactly).
	if !Monus(UnionAll(b, other), other).Equal(b) {
		t.Fatal("Monus(UnionAll(b, o), o) != b")
	}
	// The in-place (b ∸ d) ⊎ a equals the pure form, keeps a cached
	// index syncable, and keeps the journal accounting — with d = other
	// (overlapping b, not a sub-bag of it) and a = a slice of both.
	if msg := checkApplyDelta(b, other, Min(UnionAll(b, other), DupElim(other))); msg != "" {
		t.Fatal(msg)
	}
	if msg := checkApplyDelta(b, Max(b, other), other); msg != "" {
		t.Fatal(msg)
	}
	// min is a lower bound of both; max an upper bound of b.
	lo := Min(b, other)
	if !lo.SubBagOf(b) || !lo.SubBagOf(other) {
		t.Fatal("Min(b, o) not a subbag of both arguments")
	}
	if !b.SubBagOf(Max(b, other)) {
		t.Fatal("b not a subbag of Max(b, o)")
	}
	// except ⊆ b and is disjoint from o's support.
	ex := Except(b, other)
	if !ex.SubBagOf(b) {
		t.Fatal("Except(b, o) not a subbag of b")
	}
	ex.Each(func(tu schema.Tuple, n int) {
		if other.Contains(tu) {
			t.Fatalf("Except(b, o) kept %s, which o contains", tu)
		}
	})
	// ε collapses every multiplicity to exactly one.
	DupElim(b).Each(func(tu schema.Tuple, n int) {
		if n != 1 {
			t.Fatalf("DupElim multiplicity %d for %s", n, tu)
		}
	})
	// EachOrdered visits the same contents as Each, just ordered.
	ordered := New()
	b.EachOrdered(func(tu schema.Tuple, n int) { ordered.Add(tu, n) })
	if !ordered.Equal(b) {
		t.Fatal("EachOrdered visited different contents than Each")
	}
	if msg := checkBuild(b); msg != "" {
		t.Fatal(msg)
	}
}

// checkBuild builds b's rows again with Build, as a snapshot's load
// does, and then the same rows with the last one repeated: the first
// must equal b, the second fail as a duplicate. It returns the first
// difference, or "".
func checkBuild(b *Bag) string {
	var rows []schema.Tuple
	var counts []int
	b.EachOrdered(func(tu schema.Tuple, n int) {
		rows = append(rows, tu)
		counts = append(counts, n)
	})
	build := func(rows []schema.Tuple, counts []int) (*Bag, error) {
		i := -1
		return Build(int(b.arity), len(rows), func(tu schema.Tuple) (int, error) {
			i++
			copy(tu, rows[i])
			return counts[i], nil
		})
	}
	if got, err := build(rows, counts); err != nil || !got.Equal(b) {
		return fmt.Sprintf("Build of %v's rows gives %v, %v", b, got, err)
	}
	if len(rows) == 0 {
		return ""
	}
	if _, err := build(append(rows, rows[len(rows)-1]), append(counts, 1)); err == nil {
		return fmt.Sprintf("Build of %v's rows and its last one again succeeded", b)
	}
	return ""
}

// runHandles runs data as a program over two bag handles, begun by
// start, each with a map[string]int reference model, and returns the
// handles. Each op consumes 3 bytes — opcode, tuple id, count — and acts
// on the current handle, with the first width columns of the tuple the
// id names (of width 0, every id names the one arity-0 tuple, and the
// ops that read a column, 5 and 11, do nothing): 0-2 Add, 3-4 Remove, 5 IndexOn (checked against
// a fresh build), 6 ApplyDelta or a burst longer than the journal
// window, 7 Clear, 8 Clone into the other handle, 9 switch handles, 10
// Prepare with the count byte as pending, then Adopt (what Prepare
// returns must match the model before it is adopted), 11 join a probe
// over every key with the handle through its own index, read as
// b ∸ σ_keep(sub) — sub none, empty or the other handle, keep all or
// even second columns — against the same join over that bag
// materialized, and again with holders drawn from the other handle
// (joinHolders). After every step both handles must match their models —
// a Clone is a snapshot, so a write or Clear on either side never shows
// on the other — and after a Clear the handle's capacity obeys the
// retention bound.
func runHandles(t *testing.T, data []byte, start func() *Bag, width int) [2]*Bag {
	t.Helper()
	hs := [2]*Bag{start(), start()}
	models := [2]map[string]int{{}, {}}
	cur := 0
	for i := 0; i+2 < len(data); i += 3 {
		b, model := hs[cur], models[cur]
		tu := schema.Row(int(data[i+1]%5), fuzzVals[data[i+1]/5%5])[:width]
		n := int(data[i+2] % 4)
		key := tu.Key()
		switch data[i] % 12 {
		case 0, 1, 2:
			b.Add(tu, n)
			model[key] += n
		case 3, 4:
			b.Remove(tu, n)
			model[key] -= n
		case 5:
			// The index is asked for mid-sequence, so later ops reach it
			// through the journal, not through a first build.
			if width == 0 {
				break
			}
			if msg := checkIndexOn(b); msg != "" {
				t.Fatal(msg)
			}
		case 6:
			if n == 0 {
				// A burst that overflows the journal window: the bag
				// itself must carry its index across.
				for j := 0; j < 2*window(b)+1; j++ {
					b.Add(tu, 1)
					b.Remove(tu, 1)
				}
				break
			}
			b.ApplyDelta(Of(tu), New().Add(tu, n))
			model[key] = max(model[key]-1, 0) + n
		case 7:
			b.Clear()
			clear(model)
			if fill := int(b.last.Load() & fillMask); cap(b.p) > max(4*fill, clearFloor) {
				t.Fatalf("step %d: Clear keeps room for %d tuples after a fill of %d", i/3, cap(b.p), fill)
			}
		case 8:
			hs[1-cur] = b.Clone()
			models[1-cur] = maps.Clone(model)
		case 9:
			cur = 1 - cur
		case 10:
			if p := b.Prepare(int(data[i+2] % 16)); p != nil {
				if msg := checkModel(p, model); msg != "" {
					t.Fatalf("step %d: Prepare(%d): %s", i/3, data[i+2]%16, msg)
				}
				b.Adopt(p)
			}
		case 11:
			if width == 0 {
				break
			}
			var sub *Bag
			var keep func(schema.Tuple) bool
			switch n {
			case 1:
				sub = New()
			case 3:
				keep = func(tu schema.Tuple) bool { return tu[1].AsInt()%2 == 0 }
				fallthrough
			case 2:
				sub = hs[1-cur]
			}
			c := schema.Row(int(data[i+1] % 5))[0]
			probe := New()
			for k := 0; k < 5; k++ {
				probe.Add(schema.Row(k, c), 1)
			}
			if msg := checkJoinSub(probe, b, sub, keep, joinHolders(hs[1-cur], c)); msg != "" {
				t.Fatalf("step %d: %s", i/3, msg)
			}
		}
		// The model mirrors the bag's floor-at-zero semantics.
		if model[key] <= 0 {
			delete(model, key)
		}
		for h := range hs {
			if msg := checkModel(hs[h], models[h]); msg != "" {
				t.Fatalf("step %d, handle %d: %s", i/3, h, msg)
			}
		}
	}
	return hs
}

// fuzzVals are the second column's values of runHandles' tuples. The
// last two are one apart past 2^53, where a float64 no longer tells them
// apart; their keys do.
var fuzzVals = [5]int64{0, 1, 2, 1 << 53, 1<<53 + 1}

// checkModel compares a bag's accounting and contents with a
// map[string]int model, returning the first difference or "".
func checkModel(b *Bag, model map[string]int) string {
	size := 0
	for _, c := range model {
		size += c
	}
	switch {
	case b.Len() != size:
		return fmt.Sprintf("Len = %d, model says %d", b.Len(), size)
	case b.Distinct() != len(model):
		return fmt.Sprintf("Distinct = %d, model says %d", b.Distinct(), len(model))
	}
	msg := bagTableFault(b, &b.table)
	if b.lv != nil && msg == "" {
		msg = bagTableFault(b, &b.lv.base)
	}
	b.Each(func(tu schema.Tuple, n int) {
		if model[tu.Key()] != n && msg == "" {
			msg = fmt.Sprintf("Count(%s) = %d, model says %d", tu, n, model[tu.Key()])
		}
	})
	return msg
}
