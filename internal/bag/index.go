package bag

import (
	"math/bits"
	"slices"
	"strings"

	"dvm/internal/schema"
)

// indexEntry is one row stored under an index key: the full tuple, as
// its bag's entry stores it (under the arity of the index's src), and
// its multiplicity. 16 bytes. The row's hash is not kept: the two
// readers that need it (Join.Indexed's sub lookup and its unprojected
// output) encode the tuple's key into their scratch and hash that.
type indexEntry struct {
	p     *schema.Value
	count int
}

// Index is a hash index over one bag, keyed on a subset of its columns
// (the join columns). It describes the bag as of one Version and
// catches up with later mutations through the bag's journal, one map
// operation per change. There are two kinds. The bag's own index
// (Bag.IndexOn) is shared by everything that joins on those columns
// and is never rebuilt: the bag keeps it inside the journal window.
// A free-standing one (NewIndex) belongs to its caller, who Syncs it
// and rebuilds it when Sync reports the window has moved past it.
type Index struct {
	src *Bag
	ver uint64
	pos []int
	// m maps each distinct join key to its bucket's slot in buckets, and
	// is sized by the keys: an index that stays (owned or free-standing)
	// starts empty and grows to its key count — a table's rows outnumber
	// its join keys by whatever the join's fan-out is, and a map sized
	// for the rows keeps that many empty slots for good. Only Join.Hash's
	// throw-away index, built on the smaller and typically key-unique
	// side, is pre-sized (newIndex). A bucket that grows or shrinks is
	// written in buckets, so only a key that comes or goes writes m; the
	// slot of a bucket emptied waits in free for the next new key.
	m       map[string]int
	buckets []bucket
	free    []int
	buf     []byte // reusable probe-key buffer
	steps   int    // bucket entries and table slots apply has touched; tests bound it by the change count
}

// scanMax is the most rows a bucket finds a row among by scanning them.
const scanMax = 8

// bucket is the rows under one join key, dense and in arrival order but
// for removals (the last row takes a removed row's place), so a join
// walks a plain slice. A bucket of more than scanMax rows also keeps a
// position table, which finds a row by its tuple pointer whatever the
// bucket's size: open-addressed slots, each a row's position + 1 (0 is
// empty), probed linearly from the pointer's hash and never more than
// half full. Within one bag a pointer names one distinct tuple (an
// arity-0 bag's one row is nil), and the journal entries apply reads
// carry the pointer the bag stores, so the pointer is the row's key at
// no cost: nothing is stored per row but its entry and, in a large
// bucket, two to four 4-byte slots. A removal shifts the rest of its
// cluster back, so churn leaves no tombstones, and the table goes when
// the bucket is back under half of scanMax rows.
type bucket struct {
	rows []indexEntry
	tab  []int32
}

// tabLen is the table length for n rows: a power of two, at least 2n.
func tabLen(n int) int { return 1 << bits.Len(uint(2*n-1)) }

// home is the first slot p's row is probed at in a table of n slots.
func home(p *schema.Value, n int) int {
	return int(schema.PtrHash(p) >> (64 - bits.TrailingZeros(uint(n))))
}

// find returns the position of the row whose tuple is at p, or -1; the
// table slot that holds it, or, for a row not found, the empty slot its
// probe stopped at (-1 without a table); and the rows or slots it read.
func (bk *bucket) find(p *schema.Value) (i, s, read int) {
	if bk.tab == nil {
		for i, e := range bk.rows {
			if e.p == p {
				return i, -1, i + 1
			}
		}
		return -1, -1, len(bk.rows)
	}
	mask := len(bk.tab) - 1
	for s = home(p, len(bk.tab)); ; s = (s + 1) & mask {
		read++
		switch v := int(bk.tab[s]); {
		case v == 0:
			return -1, s, read
		case bk.rows[v-1].p == p:
			return v - 1, s, read
		}
	}
}

// add appends a row find did not find, s being the slot find returned,
// and returns the table slots it touched beyond find's: every row's when
// the table is made or outgrown.
func (bk *bucket) add(e indexEntry, s int) (touched int) {
	bk.rows = append(bk.rows, e)
	n := len(bk.rows)
	switch {
	case bk.tab == nil && n <= scanMax:
	case 2*n > len(bk.tab):
		touched = bk.index(tabLen(n))
	default:
		bk.tab[s] = int32(n)
	}
	return touched
}

// remove swap-removes the row at position i, held in table slot s, and
// returns the table slots it touched.
func (bk *bucket) remove(i, s int) (touched int) {
	last := len(bk.rows) - 1
	if bk.tab != nil {
		touched = bk.unslot(s)
		if i != last {
			_, m, read := bk.find(bk.rows[last].p)
			bk.tab[m] = int32(i + 1)
			touched += read
		}
	}
	bk.rows[i] = bk.rows[last]
	bk.rows[last] = indexEntry{} // or the backing array keeps the tuple alive
	bk.rows = bk.rows[:last]
	switch {
	case bk.tab == nil:
	case last < scanMax/2:
		bk.tab = nil
	case 8*last < len(bk.tab):
		touched += bk.index(tabLen(last))
	}
	return touched
}

// index makes a table of n slots over the rows, and returns the slots
// it touched.
func (bk *bucket) index(n int) (touched int) {
	bk.tab = make([]int32, n)
	for i, e := range bk.rows {
		touched += bk.put(e.p, i+1)
	}
	return touched
}

// put stores v, the position + 1 of the row whose tuple is at p, in the
// first empty slot from p's home, and returns the slots it read.
func (bk *bucket) put(p *schema.Value, v int) (read int) {
	mask := len(bk.tab) - 1
	s := home(p, len(bk.tab))
	for read = 1; bk.tab[s] != 0; read++ {
		s = (s + 1) & mask
	}
	bk.tab[s] = int32(v)
	return read
}

// unslot empties table slot s and shifts each later slot of its
// cluster back into the hole when its home lies at or before the hole,
// so a probe never stops short of its row: no tombstone is left. It
// returns the slots it read.
func (bk *bucket) unslot(s int) (read int) {
	mask := len(bk.tab) - 1
	for j := (s + 1) & mask; ; j = (j + 1) & mask {
		read++
		v := bk.tab[j]
		if v == 0 {
			break
		}
		// The row at j may fill the hole unless its home lies
		// cyclically in (s, j].
		if h := home(bk.rows[v-1].p, len(bk.tab)); (j-h)&mask >= (j-s)&mask {
			bk.tab[s] = v
			s = j
		}
	}
	bk.tab[s] = 0
	return read
}

// NewIndex builds a free-standing hash index over b keyed on the given
// column positions, and switches on b's mutation journal so the index
// can later be brought up to date incrementally (Sync). The positions
// slice is retained; callers must not mutate it.
func NewIndex(b *Bag, positions []int) *Index {
	if b.dx == nil {
		b.dx = &derived{}
	}
	b.dx.jcap = max(b.dx.jcap, b.Distinct()/4, 256)
	return newIndex(b, positions, true)
}

// newIndex reads b and changes nothing about it. Without the position
// tables the index can be probed but not synced — it is Join.Hash's,
// gone when the join returns (probeIndex); an addressable index is kept,
// grows to its key count, and makes each large bucket's table once,
// when all its rows are in.
func newIndex(b *Bag, positions []int, addressable bool) *Index {
	if !addressable && len(positions) > 0 {
		return probeIndex(b, positions)
	}
	ix := &Index{
		src: b,
		pos: positions,
		m:   make(map[string]int),
	}
	var key []byte
	b.each(func(_ uint32, e entry) {
		key = b.tupleAt(e.p).AppendKeyAt(key[:0], positions)
		k := ix.slot(key)
		ix.buckets[k].rows = append(ix.buckets[k].rows, indexEntry{p: e.p, count: e.count})
	})
	if addressable { // and so syncable: NewIndex has made b.dx
		for k := range ix.buckets {
			if bk := &ix.buckets[k]; len(bk.rows) > scanMax {
				bk.index(tabLen(len(bk.rows)))
			}
		}
		ix.ver = b.dx.ver
	}
	return ix
}

// bucket returns the entries under join key k: none when k has none.
func (ix *Index) bucket(k []byte) []indexEntry {
	i, ok := ix.m[string(k)]
	if !ok {
		return nil
	}
	return ix.buckets[i].rows
}

// slot returns the slot of join key k's bucket. A new key takes an
// emptied bucket's slot, or one more at the end.
func (ix *Index) slot(k []byte) int {
	if i, ok := ix.m[string(k)]; ok {
		return i
	}
	i := len(ix.buckets)
	if n := len(ix.free); n > 0 {
		i, ix.free = ix.free[n-1], ix.free[:n-1]
	} else {
		ix.buckets = append(ix.buckets, bucket{})
	}
	ix.m[string(k)] = i
	return i
}

// probeIndex is Join.Hash's throw-away index over b, keyed on the given
// columns, built for the case Hash picks its build side for: one row per
// key. Its bucket map is pre-sized for that and never regrows, each
// key's first entry is a capped sub-slice of one array of b's distinct
// count, and every key string is carved from an arena whose chunks are
// sized for the rows left at the current key's length, up to 4 KiB. A
// second entry for a key appends to its bucket. So a key-unique build
// side costs the map, the array and a chunk per 4 KiB of keys, not a
// key and a bucket per row.
func probeIndex(b *Bag, positions []int) *Index {
	left := b.Distinct()
	ix := &Index{src: b, pos: positions, m: make(map[string]int, left), buckets: make([]bucket, 0, left)}
	first := make([]indexEntry, left)
	var keys arena
	var kb [128]byte
	key := kb[:0]
	b.each(func(_ uint32, e entry) {
		key = b.tupleAt(e.p).AppendKeyAt(key[:0], positions)
		k := keys.str(key, min(left*len(key), arenaChunk))
		left--
		ie := indexEntry{p: e.p, count: e.count}
		if i, ok := ix.m[k]; ok {
			ix.buckets[i].rows = append(ix.buckets[i].rows, ie)
			return
		}
		first[0] = ie
		ix.m[k] = len(ix.buckets)
		ix.buckets = append(ix.buckets, bucket{rows: first[:1:1]})
		first = first[1:]
	})
	return ix
}

// arenaChunk is the most bytes an arena chunk is made with, unless one
// key is longer.
const arenaChunk = 4 << 10

// arena hands out strings appended to a chunk: a strings.Builder grown
// once and never past its size, whose String shares its buffer, so the
// bytes under a string handed out are never written again. A chunk is
// freed with the last string it holds.
type arena struct{ chunk strings.Builder }

// str returns a string of k's bytes. When the chunk has no room left
// for them, a new one of room bytes (len(k) at least) takes them.
func (a *arena) str(k []byte, room int) string {
	if a.chunk.Cap()-a.chunk.Len() < len(k) {
		a.chunk = strings.Builder{}
		a.chunk.Grow(max(room, len(k)))
	}
	n := a.chunk.Len()
	a.chunk.Write(k)
	return a.chunk.String()[n:]
}

// IndexOn returns the bag's own index on the given column positions,
// up to date, and the number of entries it took to get there: the
// bag's distinct count when the index is created (first call for these
// positions), the journal entries since the previous call afterwards —
// zero when nothing changed. The index stays with the bag for good and
// every caller shares it, so it must not be kept across mutations
// without calling IndexOn again. IndexOn leaves the contents alone but
// writes the bag's index set: only whoever may mutate the bag may call
// it, never a reader sharing the bag under a read lock.
func (b *Bag) IndexOn(positions []int) (ix *Index, applied int) {
	if b.dx != nil {
		for _, own := range b.dx.owned {
			if slices.Equal(own.pos, positions) {
				applied, _ = own.Sync(b) // cannot fail: the bag keeps its own indexes inside the window
				return own, applied
			}
		}
	}
	ix = NewIndex(b, positions)
	b.dx.owned = append(b.dx.owned, ix)
	return ix, b.Distinct()
}

// Indexes returns the column positions of each index the bag owns.
func (b *Bag) Indexes() [][]int {
	if b.dx == nil {
		return nil
	}
	out := make([][]int, len(b.dx.owned))
	for i, ix := range b.dx.owned {
		out[i] = ix.pos
	}
	return out
}

// Sync brings a free-standing index up to date with b: free when b is
// unchanged, O(|changes|) via b's mutation journal when the window
// covers the gap. It returns false when the index describes another
// bag or the journal cannot answer — the caller should rebuild. The
// number of journal entries applied is returned for work accounting.
func (ix *Index) Sync(b *Bag) (applied int, ok bool) {
	if ix.src != b {
		return 0, false
	}
	ents, ok := b.journalSince(ix.ver)
	if !ok {
		return 0, false
	}
	ix.applyAll(ents)
	ix.ver = b.dx.ver
	return len(ents), true
}

// applyAll folds a run of journal entries into the index.
func (ix *Index) applyAll(ents []jentry) {
	for _, e := range ents {
		if e.d != 0 {
			ix.apply(e)
		}
	}
}

// apply folds one effective mutation into the index, in O(1): the
// key's bucket finds the entry by its tuple pointer, and a removed
// entry's place is refilled from the bucket's end. Only a key new to
// the index or gone from it writes m.
func (ix *Index) apply(e jentry) {
	ix.buf = ix.src.tupleAt(e.p).AppendKeyAt(ix.buf[:0], ix.pos)
	k, ok := ix.m[string(ix.buf)]
	if !ok {
		if e.d <= 0 {
			return
		}
		k = ix.slot(ix.buf)
	}
	bk := &ix.buckets[k]
	i, s, read := bk.find(e.p)
	ix.steps += read
	switch {
	case i < 0 && e.d <= 0:
		return
	case i < 0:
		ix.steps += bk.add(indexEntry{p: e.p, count: e.d}, s)
	case bk.rows[i].count+e.d > 0:
		bk.rows[i].count += e.d // in place: the bucket's slices stay as they are
		return
	default:
		ix.steps += bk.remove(i, s)
		if len(bk.rows) == 0 {
			*bk = bucket{}
			ix.free = append(ix.free, k)
			delete(ix.m, string(ix.buf))
		}
	}
}

// Join is one σ_p(L × R), optionally under a Π, in compiled form: p's
// conjuncts split by the side they read, and the output's shape. Left
// and Right are given one operand's tuple, Cross the concatenated row;
// nil stands for TRUE. A predicate must not retain its argument: Cross
// sees a scratch row that the next candidate overwrites. Project lists
// the positions of the concatenated row the output keeps (the Π above
// the join); nil keeps the whole row. Keep is r when the indexed side is
// read as B ∸ σ_r(X) (Indexed's sub): it is given X's tuple, and nil
// keeps all of X.
type Join struct {
	Left, Right, Cross, Keep func(schema.Tuple) bool
	Project                  []int
}

// Indexed joins probe with the bag ix describes — L when buildLeft is
// true, R otherwise — looking each distinct probe tuple up in ix under
// its probePos columns, and writes the join into out. out must be empty,
// flat and private, with no index of its own: what New returns and
// Clear leaves of a bag no one has indexed. A caller that evaluates the
// join again and again clears and passes the same out, which keeps its
// buckets by Clear's rule instead of growing a new map from empty. A
// non-nil sub makes the indexed side B ∸ σ_Keep(sub) rather than B: a
// bucket entry's count drops by its tuple's count in sub when Keep
// holds for sub's tuple — one lookup per entry that passed its side's
// conjuncts, under the entry's hash, exact for any bags, and nothing
// materialized. It filters before it allocates: the probe side's
// conjuncts run before the lookup, the indexed side's on the bucket
// entry, Cross on a scratch row, and only a survivor is materialized,
// once, in its final shape. Unprojected, the scratch row is hashed from
// the probe tuple's key — encoded once, at its first output — beside the
// indexed half's, encoded into the buffer; projected, the row is
// projected into a second scratch, which is hashed and looked up in the
// output. A row new to the output is then looked up in held, in order:
// the output stores the first holder's tuple (its pointer) when one
// holds the row, and a tuple is made only when none does — unprojected,
// the output takes the scratch row over, and keeps it scratch on a hit.
// held is read only, and any bags may be held: a hit is key equality, as
// a bag's own lookup is, and tuples are immutable, so the output is the
// same bag whatever held holds; only whose tuple it stores changes. A
// view's maintenance holds its MV (and △MV), where Figure 1 puts every
// row a deletion reaches. probed counts the bucket entries examined —
// the work done, where a rescan would pay |L|·|R|.
func (j *Join) Indexed(out, probe *Bag, probePos []int, ix *Index, sub *Bag, buildLeft bool, held []*Bag) (probed int) {
	return j.indexed(out, probe, probePos, ix, sub, buildLeft, held, nil)
}

// heldBy returns the pointer under which the first bag of held that
// holds t (h being its hash) stores it, and whether one does. An arity-0
// tuple's pointer is nil: only ok tells a hit.
func heldBy(held []*Bag, h uint32, t schema.Tuple) (p *schema.Value, ok bool) {
	for _, b := range held {
		if b.size == 0 || int(b.arity) != len(t) {
			continue
		}
		if e := b.get(h, t); e.count > 0 {
			return e.p, true
		}
	}
	return nil, false
}

// indexed is Indexed, making each output tuple no holder holds with
// cv.tuple: carved from slabs when cv is not nil.
func (j *Join) indexed(out, probe *Bag, probePos []int, ix *Index, sub *Bag, buildLeft bool, held []*Bag, cv *carver) (probed int) {
	probePred, buildPred, cross, keep, project := j.Left, j.Right, j.Cross, j.Keep, j.Project
	if buildLeft {
		probePred, buildPred = buildPred, probePred
	}
	if project != nil {
		out.arity = int32(len(project)) // the projected path writes past addKeyed
	}
	// Scratch rows and key buffers belong to this call, never to the
	// index: the writer and readers run joins side by side.
	var row schema.Tuple
	var pa [8]schema.Value
	prow := schema.Tuple(pa[:0]) // the projected scratch row
	var kb, pkb [128]byte
	buf := kb[:0]
	probe.each(func(_ uint32, ep entry) {
		pt := probe.tupleAt(ep.p)
		if probePred != nil && !probePred(pt) {
			return
		}
		var pk []byte // pt's key, once an unprojected output needs it
		buf = pt.AppendKeyAt(buf[:0], probePos)
		for _, eb := range ix.bucket(buf) {
			probed++
			bt := ix.src.tupleAt(eb.p)
			if buildPred != nil && !buildPred(bt) {
				continue
			}
			nb := eb.count
			if sub != nil {
				if es := sub.get(hashOf(bt), bt); es.count > 0 && (keep == nil || keep(sub.tupleAt(es.p))) {
					if nb -= es.count; nb <= 0 {
						continue
					}
				}
			}
			if row == nil {
				row = cv.tuple(len(pt) + len(bt))
			}
			lt, rt := pt, bt
			if buildLeft {
				lt, rt = rt, lt
			}
			copy(row, lt)
			copy(row[len(lt):], rt)
			if cross != nil && !cross(row) {
				continue
			}
			n := ep.count * nb
			if project != nil {
				prow = prow[:0]
				for _, p := range project {
					prow = append(prow, row[p])
				}
				h := hashOf(prow)
				out.size += n
				if i, s := out.find(&out.table, h, prow); i >= 0 {
					out.setCount(i, out.count(i)+n)
				} else {
					p, ok := heldBy(held, h, prow)
					if !ok {
						t := cv.tuple(len(prow))
						copy(t, prow)
						p = t.Ptr()
					}
					out.add(h, p, n, s)
				}
				continue
			}
			// A concat tuple's canonical key is the concatenation of its
			// halves' keys (per-value self-delimiting encoding), so only
			// the indexed half is encoded, beside the probe's key.
			if pk == nil {
				pk = pt.AppendKey(pkb[:0])
			}
			if buildLeft {
				buf = append(bt.AppendKey(buf[:0]), pk...)
			} else {
				buf = bt.AppendKey(append(buf[:0], pk...))
			}
			h := keyHash(buf)
			if p, ok := heldBy(held, h, row); ok {
				out.addKeyed(h, schema.TupleAt(p, len(row)), n)
				continue // the row stays scratch
			}
			out.addKeyed(h, row, n)
			row = nil // the output owns it now
		}
	})
	return probed
}

// Hash joins l and r, equal on lpos = rpos, into out (as Indexed does,
// held included), with a throw-away index on the smaller side — every
// tuple of it is a candidate when there is no column to key on. It only
// reads its operands (no journal switched on, no index registered), so
// it suits a one-off evaluation and a caller holding only read locks.
// built is the number of tuples indexed. When both operands carry
// Build's mark — a join over freshly restored tables, such as
// LoadEngine's view replay — the output tuples no holder holds are
// carved side by side from slabs of 1 to 4 Ki values, none larger than
// the operands' pairs need, as Build's rows are, instead of one
// allocation each; any other join's tuples are made one by one. The
// mark decides only how the output is allocated, never what it holds.
func (j *Join) Hash(out, l *Bag, lpos []int, r *Bag, rpos []int, held []*Bag) (probed, built int) {
	var cv *carver
	if l.isBuilt() && r.isBuilt() {
		// The output holds at most one tuple per pair of operand tuples;
		// the bound matters only below a slab's rows.
		pairs := min(l.Distinct(), joinSlabMax) * min(r.Distinct(), joinSlabMax)
		cv = &carver{limit: joinSlabMax, left: pairs}
	}
	if l.Distinct() <= r.Distinct() {
		return j.indexed(out, r, rpos, newIndex(l, lpos, false), nil, true, held, cv), l.Distinct()
	}
	return j.indexed(out, l, lpos, newIndex(r, rpos, false), nil, false, held, cv), r.Distinct()
}

// JoinIndexed is Join.Indexed into a new bag, for a predicate that has
// not been split: pred sees every candidate's concatenated row.
func JoinIndexed(probe *Bag, probePos []int, ix *Index, buildLeft bool, pred func(schema.Tuple) bool) (*Bag, int) {
	out := New()
	return out, (&Join{Cross: pred}).Indexed(out, probe, probePos, ix, nil, buildLeft, nil)
}
