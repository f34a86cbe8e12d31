package bag

import (
	"runtime"
	"slices"
	"testing"

	"dvm/internal/schema"
)

// An index's bucket map is sized by its keys, without a stopwatch: the
// tests below count bytes and allocations (runtime.MemStats), which
// repeat where times do not, and compare against maps the test makes
// itself, so they hold whatever the runtime's map costs.

// allocated returns the bytes and the objects f allocates.
func allocated(f func()) (bytes, objects uint64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc, m1.Mallocs - m0.Mallocs
}

// live returns the heap bytes that what f returns keeps reachable.
func live(f func() any) uint64 {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	v := f()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	runtime.KeepAlive(v)
	return m1.HeapAlloc - m0.HeapAlloc
}

// keyedRows returns rows distinct tuples (k, i) over keys join keys.
func keyedRows(rows, keys int) *Bag {
	b := NewSized(rows)
	for i := 0; i < rows; i++ {
		b.Add(schema.Row(i%keys, i), 1)
	}
	return b
}

var keptMap any // keeps a measured make from being optimized away

// TestBagUnitSlotIsAPointer: a 100 000-row fill of a pre-sized bag, every
// row once, costs no more than the same fill of a map from a tuple's
// hash to a tuple pointer, a 16-byte slot, plus the Bag itself. Both
// fills hash the same tuples, and neither stores a key, so what is
// compared is the table: a pointer, a 4-byte hash and two 4-byte slots
// an entry, 2,007,120 B (go1.24, linux/amd64) against the map's
// 2,364,592. (An entry with a count beside the pointer makes the map's
// slot 24 bytes, half as large again.)
func TestBagUnitSlotIsAPointer(t *testing.T) {
	const rows = 100_000
	tuples := make([]schema.Tuple, rows)
	for i := range tuples {
		tuples[i] = schema.Row(i, i%7)
	}
	ref, _ := allocated(func() {
		m := make(map[uint64]*schema.Value, rows)
		for _, tu := range tuples {
			m[tu.Hash()] = tu.Ptr()
		}
		keptMap = m
	})
	got, _ := allocated(func() {
		b := NewSized(rows)
		for _, tu := range tuples {
			b.Add(tu, 1)
		}
		keptMap = b
	})
	t.Logf("%d-row fill: bag %d B, reference map %d B", rows, got, ref)
	// 1% covers the Bag and the runtime's own allocations meanwhile (a few
	// KiB); an 8-byte-larger slot would cost megabytes.
	if limit := ref + ref/100; got > limit {
		t.Errorf("a %d-row bag fill allocated %d B, want at most %d B: its entry is larger than a pointer and a hash", rows, got, limit)
	}
}

// bagLiveBytesPerRow returns what a bag of rows distinct tuples, each
// added n times, keeps live per row beyond the rows themselves, which
// exist before it — in maps grown by Add, as a table's are.
func bagLiveBytesPerRow(rows, n int) uint64 {
	tuples := make([]schema.Tuple, rows)
	for i := range tuples {
		tuples[i] = schema.Row(i, i%7)
	}
	got := live(func() any {
		b := New()
		for _, tu := range tuples {
			b.Add(tu, n)
		}
		return b
	})
	runtime.KeepAlive(tuples) // or its headers' release counts against the bag
	return got / uint64(rows)
}

// TestBagLiveBytesPerRow: what a table of 100 000 rows, each held once,
// keeps live per row beyond the rows themselves: its pointer, its 4-byte
// hash and two 4-byte slots of the position table, 20 B, in room grown
// by Add — and nothing else: no count, no key string. 20 B/row measured
// (go1.24, linux/amd64); the unit map this table replaced kept 23, with a
// count in every slot the same table kept 34, and keyed by its key
// string (a 32-byte slot and a 16-byte key of its own) 68.
func TestBagLiveBytesPerRow(t *testing.T) {
	const rows = 100_000
	perRow := bagLiveBytesPerRow(rows, 1)
	t.Logf("a %d-row bag keeps %d B/row live beyond its rows", rows, perRow)
	if perRow > 26 {
		t.Errorf("a bag keeps %d B/row live beyond its rows, want at most 26", perRow)
	}
}

// TestCountedBagLiveBytesPerRow: 100 000 rows each held twice, so every
// entry has a count, two 4-byte words beside its hash: no worse than a
// bag with a count in every slot was. 28 B/row measured (go1.24,
// linux/amd64); the counted map this table replaced kept 34.
func TestCountedBagLiveBytesPerRow(t *testing.T) {
	const rows = 100_000
	perRow := bagLiveBytesPerRow(rows, 2)
	t.Logf("a %d-row bag of multiplicity 2 keeps %d B/row live beyond its rows", rows, perRow)
	if perRow > 34 {
		t.Errorf("a bag of multiplicity 2 keeps %d B/row live beyond its rows, want at most 34", perRow)
	}
}

// TestChurnedBagLiveBytesPerRow: the table of TestBagLiveBytesPerRow
// after 100 000 rounds that each remove one live row and add a new one,
// as a day of Example 5.4 churns sales, keeps no more per row than the
// built bound. A removal moves the last entry into the hole and shifts
// its cluster back, so churn neither grows the table nor leaves a
// tombstone in it. 20 B/row measured (go1.24, linux/amd64); the bag of
// swiss maps this table replaced kept 46 B/row churned so (23 built),
// since a map reclaims its tombstones only by a rehash that doubles it.
func TestChurnedBagLiveBytesPerRow(t *testing.T) {
	const rows = 100_000
	tuples := make([]schema.Tuple, 2*rows)
	for i := range tuples {
		tuples[i] = schema.Row(i, i%7)
	}
	got := live(func() any {
		b := New()
		for _, tu := range tuples[:rows] {
			b.Add(tu, 1)
		}
		for i := 0; i < rows; i++ {
			b.Remove(tuples[i*7%rows], 1) // each row once, in an order other than its arrival
			b.Add(tuples[rows+i], 1)
		}
		if b.Distinct() != rows {
			t.Fatalf("after the churn: %d distinct tuples, want %d", b.Distinct(), rows)
		}
		return b
	})
	runtime.KeepAlive(tuples)
	perRow := got / rows
	t.Logf("a %d-row bag churned %d times keeps %d B/row live beyond its rows", rows, rows, perRow)
	if perRow > 26 {
		t.Errorf("a churned bag keeps %d B/row live beyond its rows, want at most 26, as built", perRow)
	}
}

// TestLookupsAllocateNothing: Count and Contains hash their tuple from
// a stack buffer and compare it with the stored one, and an Add of a
// new tuple into a bag pre-sized for it stores the tuple's pointer under
// its hash: none of them allocates — where a key string per call was
// one allocation each.
func TestLookupsAllocateNothing(t *testing.T) {
	const rows = 1000
	tuples := make([]schema.Tuple, rows)
	for i := range tuples {
		tuples[i] = schema.Row(i, "customer")
	}
	b := NewSized(rows)
	for _, tu := range tuples[:rows/2] {
		b.Add(tu, 1)
	}
	next := rows / 2
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"Count", func() { _ = b.Count(tuples[7]) }},
		{"Contains, a miss", func() { _ = b.Contains(tuples[rows-1]) }},
		{"Add of a new tuple", func() { b.Add(tuples[next], 1); next++ }},
	} {
		if got := testing.AllocsPerRun(100, c.f); got != 0 {
			t.Errorf("%s allocates %v times, want 0", c.name, got)
		}
	}
	if b.Distinct() != next || !b.Contains(tuples[next-1]) {
		t.Fatalf("after the Adds: %d distinct tuples, want %d", b.Distinct(), next)
	}
}

// TestOwnedIndexIsKeySized: a table of 100 000 rows under 1 000 join
// keys. The throw-away index over the same bag is the yardstick: the
// same buckets, a bucket map pre-sized for a key per row. The bag's own
// index must cost that, less the row-sized map — its bucket map holds
// 1 000 keys and is sized for them — so it allocates less than the
// throw-away one although it carries a position table per bucket. (With
// both bucket maps sized by rows it is the costlier by those tables.)
// What is left is per row: the bucket entries and their table slots.
func TestOwnedIndexIsKeySized(t *testing.T) {
	const rows, keys = 100_000, 1_000
	b := keyedRows(rows, keys)
	throwAway, _ := allocated(func() { keptMap, _ = probeIndex(b, []int{0}, nil) })
	var ix *Index
	owned, _ := allocated(func() { ix, _ = b.IndexOn([]int{0}) })
	rowSized, _ := allocated(func() { keptMap = make(map[string][]indexEntry, rows) })
	t.Logf("%d rows, %d keys: owned index %d B (%d B/row), throw-away %d B; a row-sized bucket map is %d B",
		rows, keys, owned, owned/rows, throwAway, rowSized)
	if len(ix.m) != keys {
		t.Fatalf("index holds %d keys, want %d", len(ix.m), keys)
	}
	// owned = throw-away − the row-sized map + a 1 000-key map and the
	// tables; a tenth of the row-sized one is room enough for that.
	if limit := throwAway - rowSized + rowSized/10; owned > limit {
		t.Errorf("the owned index allocated %d B, want at most %d B: its bucket map is sized by rows, not keys", owned, limit)
	}
}

// TestOwnedIndexLiveBytesPerRow: what a table's own index keeps live,
// per row — a 30 000-row sales table under 1 400 customers, the shape of
// Example 5.4's custId index. A row costs its bucket entry (a tuple
// pointer and a count, 16 B, in a bucket grown by append) and two to
// four 4-B slots of its bucket's position table; the bucket map and the
// bucket headers are per key. Built, and churned: ten rounds that each
// delete a tenth of the rows and add them back as new tuples, through
// the journal, as a day of Example 5.4 churns sales. 40 B/row built and
// churned (go1.24, linux/amd64); an address map from every row's
// pointer to its position kept 65 B/row built and 66 churned, and an
// entry and an address that each carried the row's key string 115.
func TestOwnedIndexLiveBytesPerRow(t *testing.T) {
	const rows, keys, bound = 30_000, 1_400, 44
	for _, rounds := range []int{0, 10} {
		b := keyedRows(rows, keys)
		b.IndexOn([]int{0})
		for r := 0; r < rounds; r++ {
			for i := r; i < rows; i += 10 {
				b.Remove(schema.Row(i%keys, i), 1)
			}
			for i := r; i < rows; i += 10 {
				b.Add(schema.Row(i%keys, i), 1)
			}
			b.IndexOn([]int{0})
		}
		got := indexBytes(b)
		t.Logf("%d rows, %d keys, %d churn rounds: the owned index keeps %d B live, %d B/row", rows, keys, rounds, got, got/rows)
		if perRow := got / rows; perRow > bound {
			t.Errorf("after %d churn rounds the owned index keeps %d B/row live, want at most %d", rounds, perRow, bound)
		}
	}
}

// indexBytes returns the heap bytes b's own indexes alone keep
// reachable: the heap with them, less the heap once b has dropped them.
// The bag's rows and its journal are not counted.
func indexBytes(b *Bag) uint64 {
	var with, without runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&with)
	b.dx.owned = nil
	runtime.GC()
	runtime.ReadMemStats(&without)
	runtime.KeepAlive(b)
	return with.HeapAlloc - without.HeapAlloc
}

// TestThrowAwayIndexDoesNotRegrow: Join.Hash builds its index on the
// smaller side, typically unique in the join key — 5 000 customers. Its
// bucket map is pre-sized for that and is allocated once, each key's
// first entry is a slot of one array, and the keys share arena chunks
// of at most 4 KiB: not a key string and a bucket per row. The build's
// objects are bounded term by term:
//
//   - the map: what one make of that size costs, and no more. For a hint
//     h > 8, go1.24 makes a directory of 2^⌈log₂⌈(8h/7)/1024⌉⌉ tables of
//     (8h/7)/tables slots each, rounded up to a power of two, and a
//     table grows (splitting at 1024 slots) only when a hash puts more
//     keys in it than 7/8 of its slots. At 5 000 keys that is 8 tables
//     of 1 024 slots, 896 usable, 625 keys expected in each (σ ≈ 23): a
//     split needs 11σ. The bound still allows one (splitObjects: two
//     new tables of two objects each and a doubled directory);
//   - four objects: the Index, the first-entry array, the bucket-header
//     array and the arena's Builder (its copy check points at itself);
//   - the arena's chunks (arenaChunks), whose count depends on the
//     order the keys come in, because the keys are 2 to 5 bytes long;
//   - at 4 rows per key, two growths of each bucket past its first entry.
//
// The map's growth from empty costs 30 objects more than the make, so a
// build that drops the pre-size fails.
func TestThrowAwayIndexDoesNotRegrow(t *testing.T) {
	const rows, splitObjects = 5_000, 5
	b := keyedRows(rows, rows)
	keys := make([]string, 0, rows)
	b.Each(func(tu schema.Tuple, _ int) { keys = append(keys, string(tu.AppendKeyAt(nil, []int{0}))) })
	_, presized := allocated(func() { keptMap = make(map[string]int, rows) })
	_, grown := allocated(func() {
		m := make(map[string]int)
		for _, k := range keys {
			m[k] = 0
		}
		keptMap = m
	})
	if grown <= presized+8 {
		t.Fatalf("growing a map to %d keys took %d objects, pre-sizing it %d: the test cannot tell them apart", rows, grown, presized)
	}
	for _, perKey := range []int{1, 4} {
		side := keyedRows(rows, rows/perKey)
		var lens []int
		side.Each(func(tu schema.Tuple, _ int) { lens = append(lens, len(tu.AppendKeyAt(nil, []int{0}))) })
		var ix *Index
		_, got := allocated(func() { ix, _ = probeIndex(side, []int{0}, nil) })
		chunks := arenaChunks(lens)
		t.Logf("throw-away index over %d rows, %d per key: %d objects; a pre-sized map is %d, a grown one %d; at most %d arena chunks", rows, perKey, got, presized, grown, chunks)
		if len(ix.m) != rows/perKey {
			t.Fatalf("%d keys indexed, want %d", len(ix.m), rows/perKey)
		}
		if limit := presized + splitObjects + 4 + uint64(chunks+2*(perKey-1)*rows/perKey); got > limit {
			t.Errorf("%d rows per key: the build allocated %d objects, want at most %d: the bucket map regrew, or a key or a first entry cost an object", perKey, got, limit)
		}
	}
	// No column to key on is one bucket, whatever the side's size.
	_, product := allocated(func() { keptMap, _ = probeIndex(b, nil, nil) })
	if product > 64 {
		t.Errorf("a one-bucket index over %d rows allocated %d objects", rows, product)
	}
}

// arenaChunks bounds the chunks probeIndex's arena makes for keys of the
// given lengths (one per row), in any order. A chunk is made for the
// rows left at the current key's length, up to arenaChunk bytes, and
// takes keys until the next one does not fit, so it holds ⌊size/L⌋ keys
// at least, L the longest key. While the rows left fill a full chunk,
// each but the last takes more than arenaChunk − L bytes. After, a chunk
// made with n rows left is n·l bytes at least (l the shortest key) and
// leaves at most n − ⌊n·l/L⌋ rows for the next.
func arenaChunks(lens []int) int {
	short, long, total := slices.Min(lens), slices.Max(lens), 0
	for _, n := range lens {
		total += n
	}
	chunks := total/(arenaChunk-long+1) + 1
	for n := arenaChunk / short; n > 0; n -= max(1, n*short/long) {
		chunks++
	}
	return chunks
}

// TestBuiltJoinCarvesItsOutput pins the rule Join.Hash carves its output
// tuples by, both ways. Over two bags Build made and nothing has written
// since — a view's replay over restored tables — N output rows cost
// their slabs, the output's map and the throw-away index: under 200
// objects for 20 000 rows (go1.24, linux/amd64), projected or not. Once a tuple is Added to
// either operand, or the join reads a Clone (which does not carry
// Build's mark), every output row costs its own tuple again, as any
// other join's do: a live engine's views churn their rows, and a slab
// stays pinned while one of its rows lives. A small join's slab is
// sized by its operands' pairs, not a slab's 1 Ki values.
func TestBuiltJoinCarvesItsOutput(t *testing.T) {
	slab, _ := allocated(func() { keptMap = make([]schema.Value, slabMin) })
	l, r := rebuilt(t, keyedRows(3, 3)), rebuilt(t, keyedRows(6, 3))
	small, _ := allocated(func() { hash(&Join{}, l, []int{0}, r, []int{0}) })
	t.Logf("a 6-row join over Build's bags: %d B; a slab of %d values is %d B", small, slabMin, slab)
	if small >= slab {
		t.Errorf("a 6-row join over Build's bags allocated %d B, a %d-value slab %d B", small, slabMin, slab)
	}
	const rows, keys = 20_000, 2_000
	cust, sales := keyedRows(keys, keys), keyedRows(rows, keys)
	for _, j := range []*Join{{}, {Project: []int{1, 0, 3}}} { // unprojected, projected
		objects := func(l, r *Bag) uint64 {
			var out *Bag
			_, n := allocated(func() { out, _, _ = hash(j, l, []int{0}, r, []int{0}) })
			if out.Distinct() != rows {
				t.Fatalf("project %v: %d output rows, want %d", j.Project, out.Distinct(), rows)
			}
			return n
		}
		l, r := rebuilt(t, cust), rebuilt(t, sales)
		carved := objects(l, r)
		cloned := objects(l.Clone(), r)
		l.Add(schema.Row(-1, -1), 1) // a key no sales row has
		written := objects(l, r)
		r2 := rebuilt(t, sales)
		r2.Remove(schema.Row(-2, -2), 1) // a no-op write is a write
		writtenRight := objects(rebuilt(t, cust), r2)
		t.Logf("project %v, %d rows: %d objects over Build's bags, %d over a Clone, %d once the left is written, %d the right",
			j.Project, rows, carved, cloned, written, writtenRight)
		if carved > rows/50 {
			t.Errorf("project %v: %d output rows over Build's bags cost %d objects, want at most %d", j.Project, rows, carved, rows/50)
		}
		for name, n := range map[string]uint64{"a Clone": cloned, "a written left": written, "a written right": writtenRight} {
			if n < rows {
				t.Errorf("project %v: over %s, %d output rows cost %d objects, want one per row at least", j.Project, name, rows, n)
			}
		}
	}
}

// TestFlatReadsAllocateNoMore pins the allocations of four readers on
// flat bags — Monus, Select, Join.Indexed and a filtered Applied. Every
// reader walks through each and looks up through get, which keep a
// two-level bag's overlay over its base and scan a small bag's hashes;
// the closures they take stay on the caller's stack, so a flat read
// allocates only its output. Monus and Applied write into New, which
// outgrows its room — to 8 in one object, then doubling, two arrays a
// step (10 objects for about 100 rows, where a map grown from empty took
// 12 and 14); Select's output is a table of room for 16 from its ninth
// match (9, where a map took 12). The join writes into the bag it is
// given: into a table, as into a State's refilled bag (1520), or into
// New, as the first fill of a State's output (and a one-shot join) does
// (1519), it costs its output's growth and one tuple per output row,
// where a map output cost 1524 and 1525 (3024 when each row cost its key
// string too, as the bag's map key). Read as b ∸ sub, it looks each
// bucket entry up in sub under the entry's hash, and allocates nothing
// for it.
func TestFlatReadsAllocateNoMore(t *testing.T) {
	a := keyedRows(200, 20)
	b := keyedRows(300, 20) // shares a's 200 tuples
	del, add := keyedRows(50, 5), New()
	for i := 0; i < 40; i++ {
		add.Add(schema.Row(i%5, 1000+i), 1)
	}
	odd := func(tu schema.Tuple) bool { return tu[1].AsInt()%2 == 1 }
	sub := New() // b's join keys, none of b's rows: every lookup misses
	for i := 0; i < 20; i++ {
		sub.Add(schema.Row(i, -1), 1)
	}
	ix := NewIndex(b, []int{0})
	j := &Join{Left: odd, Project: []int{0, 1, 3}}
	for _, c := range []struct {
		name string
		f    func()
		want float64
	}{
		{"Monus", func() { keptMap = Monus(b, a) }, 10},
		{"Select", func() { keptMap = Select(a, odd) }, 9},
		{"Join.Indexed", func() { out := newTabled(); j.Indexed(out, a, []int{0}, ix, nil, false, nil); keptMap = out }, 1520},
		{"Join.Indexed into New", func() { out := New(); j.Indexed(out, a, []int{0}, ix, nil, false, nil); keptMap = out }, 1519},
		{"Join.Indexed, ∸ sub", func() { out := newTabled(); j.Indexed(out, a, []int{0}, ix, sub, false, nil); keptMap = out }, 1520},
		{"Applied, filtered", func() { keptMap = Applied(a, del, add, odd) }, 10},
	} {
		if got := testing.AllocsPerRun(20, c.f); got != c.want {
			t.Errorf("%s allocates %v times, want %v", c.name, got, c.want)
		}
	}
}
