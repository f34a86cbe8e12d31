// Package bag implements finite bags (multisets) of tuples with the
// operations of the paper's bag algebra BA (Section 2.1): additive union
// ⊎, monus ∸, duplicate elimination ε, selection σ, projection Π, and
// cartesian product ×, plus the derived operations min (minimal
// intersection), max (maximal union), and SQL EXCEPT.
//
// A Bag keeps each distinct tuple once, with its multiplicity, in one
// dense table: its entries in the order they arrived — a removed entry's
// place is taken by the last — each the tuple's pointer and its 32-bit
// hash (schema.Tuple.Hash), found through an open-addressed position
// table probed from the hash. No key string is stored. A multiplicity
// costs nothing while every entry's is 1 — nearly every row of a keyed
// table, most of a projected view's — and 8 bytes an entry from the
// first that is not. A hash is a hit only when the stored tuple compares
// equal (Tuple.Compare), so two tuples of one hash are two entries. A
// walk reads the entries in order, so it reads tuples in the order they
// were allocated, and a copy is a few memmoves. All operations are pure:
// they return fresh bags and never mutate operands, except the
// explicitly-mutating Add/AddBag/ApplyDelta/AddMonus/Remove/Clear/Adopt
// used by the storage and maintenance layers, and the join kernel
// (Join.Indexed, Join.Hash), which writes into the empty bag its caller
// gives it. Walks between bags pass each entry's hash along, so no merge
// encodes a tuple again.
//
// A bag of at most smallMax entries' room — a transaction's ∇R or △R,
// most deltas — has no position table: its hashes are scanned. New
// allocates the bag together with room for two entries.
//
// Clone is copy-on-write (a small bag is copied at once): the copy is a
// handle on the source's arrays, and whichever of the two bags is
// mutated first copies them then — or, for a view table that readers
// Clone under a read lock, its single writer prepares the write ahead of
// the exclusive lock (Prepare, then Adopt under the lock), so readers
// never wait for a copy. A bag the writer prepared while readers share
// it is written as two levels: the shared table, frozen as a base, under
// a private overlay of the tuples changed since, where an entry of count
// 0 is a tuple deleted over the base. A write after a Clone then copies
// the overlay, not the bag, until the overlay has cost what a copy of
// the base would (Prepare's rule), when the two fold back into one table.
//
// A snapshot's table arrives all at once and is built in bulk (Build):
// its rows are decoded side by side into shared slabs of values and
// keyed by hash, with no allocation per row. Such a bag carries Build's
// mark until its first write, and a join of two marked bags (Join.Hash)
// carves its output tuples from slabs too: the view a restore replays
// holds its rows as the restored tables hold theirs. Every other bag's
// tuples are one allocation each, since a live bag's rows churn and a
// slab is freed only with the last of its rows.
package bag

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

	"dvm/internal/schema"
)

// entry is one distinct tuple and its multiplicity, as a lookup or a
// walk hands it out: the tuple as a pointer to its first value
// (schema.Tuple.Ptr) under the bag's arity.
type entry struct {
	p     *schema.Value
	count int
}

// table is one level of a bag's contents: its entries, dense and in
// arrival order but for removals, which move the last entry into the
// hole. p holds each entry's tuple as a pointer to its first value, and
// aux, one array sized by p's capacity c, holds the rest:
//
//   - aux[:c], each entry's hash, so that neither a probe nor a table
//     built anew reads a tuple to compare hashes;
//   - past smallMax entries' room, a position table of 2c slots, each an
//     entry's position + 1 (0 is empty), probed linearly from the hash's
//     home and so at most half full. A removal shifts the rest of its
//     cluster back into the emptied slot (unslot): churn leaves no
//     tombstones. A table of smallMax or fewer has none, and is scanned;
//   - once an entry's count is not 1, every entry's count, as two words
//     (high, low). Until then every count is 1 and aux stops short.
//
// An entry is then 12 bytes and its two slots 8, and a count 8 more.
type table struct {
	p   []*schema.Value
	aux []uint32
}

// slotsFor is the length of the position table for room for c entries.
func slotsFor(c int) int {
	if c <= smallMax {
		return 0
	}
	return 2 * c
}

// makeTable returns an empty table with room for c entries, and for
// their counts when counted: a small one in one object (room), nothing
// for none.
func makeTable(c int, counted bool) table {
	n := c + slotsFor(c)
	if counted {
		n += 2 * c
	}
	switch {
	case c == 0:
		return table{}
	case c <= smallMax:
		r := new(room)
		return table{p: r.pb[:0:c], aux: r.ab[:n]}
	}
	return table{p: make([]*schema.Value, 0, c), aux: make([]uint32, n)}
}

// room is the arrays of a small table, made as one object.
type room struct {
	pb [smallMax]*schema.Value
	ab [3 * smallMax]uint32
}

// slots returns t's position table, empty for a small table.
func (t *table) slots() []uint32 {
	c := cap(t.p)
	return t.aux[c : c+slotsFor(c)]
}

// counts returns t's counts, two words an entry, or nothing while every
// count is 1.
func (t *table) counts() []uint32 {
	c := cap(t.p)
	return t.aux[c+slotsFor(c):]
}

// countIn returns the count of the entry at i, cs being its table's
// counts.
func countIn(cs []uint32, i int) int {
	if len(cs) == 0 {
		return 1
	}
	return int(uint64(cs[2*i])<<32 | uint64(cs[2*i+1]))
}

// count returns the count of the entry at i.
func (t *table) count(i int) int { return countIn(t.counts(), i) }

// setCount sets the count of the entry at i to n.
func (t *table) setCount(i, n int) {
	cs := t.counts()
	if len(cs) == 0 {
		if n == 1 {
			return
		}
		cs = t.countsOn()
	}
	cs[2*i], cs[2*i+1] = uint32(uint64(n)>>32), uint32(n)
}

// countsOn gives t a count for every entry, each 1 so far, in aux's
// spare capacity when it has room — a small bag's, or one a Clear left —
// and returns them.
func (t *table) countsOn() []uint32 {
	c := cap(t.p)
	o := c + slotsFor(c)
	if cap(t.aux) >= o+2*c {
		t.aux = t.aux[:o+2*c]
	} else {
		aux := make([]uint32, o+2*c)
		copy(aux, t.aux)
		t.aux = aux
	}
	cs := t.aux[o:]
	for i := range t.p {
		cs[2*i], cs[2*i+1] = 0, 1
	}
	return cs
}

// homeOf is the slot a probe for hash h starts at in n slots: a
// multiply-shift, so n need not be a power of two.
func homeOf(h uint32, n int) int { return int(uint64(h) * uint64(n) >> 32) }

// free returns the first empty slot of sl from h's home.
func free(sl []uint32, h uint32) int {
	s := homeOf(h, len(sl))
	for sl[s] != 0 {
		if s++; s == len(sl) {
			s = 0
		}
	}
	return s
}

// grown is the room a full table of room for c entries grows to:
// smallMax at least, doubling up to 64 Ki entries — as a Go map grows,
// so the copies a growth leaves behind cost what a map's would — and a
// quarter more past that, so that a large table keeps at most a quarter
// of its room spare.
func grown(c int) int {
	switch {
	case c < smallMax:
		return smallMax
	case c < 1<<16:
		return 2 * c
	}
	return c + c/4
}

// add appends an entry of hash h, tuple p and count n, which t does not
// hold; s is the empty slot a probe for it stopped at, or -1. A full
// table first moves into a larger one.
func (t *table) add(h uint32, p *schema.Value, n, s int) {
	i := len(t.p)
	if i == cap(t.p) {
		*t = t.copyTo(grown(i))
		s = -1
	}
	t.p = append(t.p, p)
	t.aux[i] = h
	t.setCount(i, n)
	if sl := t.slots(); len(sl) > 0 {
		if s < 0 {
			s = free(sl, h)
		}
		sl[s] = uint32(i + 1)
	}
}

// remove swap-removes the entry at position i, held in slot s: the last
// entry takes its place, and that entry's slot is pointed at i.
func (t *table) remove(i, s int) {
	last := len(t.p) - 1
	if sl := t.slots(); len(sl) > 0 {
		t.unslot(sl, s)
		if i != last {
			sl[t.slotOf(sl, last)] = uint32(i + 1)
		}
	}
	t.p[i], t.aux[i] = t.p[last], t.aux[last]
	if cs := t.counts(); len(cs) > 0 {
		cs[2*i], cs[2*i+1] = cs[2*last], cs[2*last+1]
	}
	t.p[last] = nil // or the array keeps the tuple alive
	t.p = t.p[:last]
}

// slotOf returns the slot of sl holding the entry at position i.
func (t *table) slotOf(sl []uint32, i int) int {
	s := homeOf(t.aux[i], len(sl))
	for int(sl[s]) != i+1 {
		if s++; s == len(sl) {
			s = 0
		}
	}
	return s
}

// unslot empties slot s and shifts each later slot of its cluster back
// into the hole when its home lies at or before the hole, so a probe
// never stops short of its entry: no tombstone is left.
func (t *table) unslot(sl []uint32, s int) {
	n := len(sl)
	for j := s + 1; ; j++ {
		if j == n {
			j = 0
		}
		v := sl[j]
		if v == 0 {
			break
		}
		// The entry at j may fill the hole unless its home lies
		// cyclically in (s, j].
		if h := homeOf(t.aux[v-1], n); (j-h+n)%n >= (j-s+n)%n {
			sl[s] = v
			s = j
		}
	}
	sl[s] = 0
}

// copyTo returns a table of its own with room for c ≥ len(t.p) entries
// holding t's (fill).
func (t *table) copyTo(c int) table {
	n := makeTable(c, len(t.counts()) > 0)
	n.fill(t)
	return n
}

// fill copies from's entries into t, which is empty and has room for
// them: memmoves of the pointers, hashes, counts and, when the two have
// the same room, the position table, which is otherwise built anew
// from the hashes.
func (t *table) fill(from *table) {
	n := len(from.p)
	t.p = append(t.p, from.p...)
	copy(t.aux, from.aux[:n])
	if cs := from.counts(); len(cs) > 0 {
		copy(t.countsOn(), cs[:2*n])
	}
	sl := t.slots()
	if cap(t.p) == cap(from.p) {
		copy(sl, from.slots())
		return
	}
	for i, h := range t.aux[:n] {
		if len(sl) > 0 {
			sl[free(sl, h)] = uint32(i + 1)
		}
	}
}

// Bag is a finite multiset of tuples. The zero value is NOT ready to use;
// call New. Bags are not safe for concurrent mutation.
//
// A non-empty bag holds tuples of one arity: the first insert into an
// empty bag sets it, and inserting a tuple of another arity into a
// non-empty bag panics — a programming error, since every table and
// every operator's output has one schema. Removing a tuple of another
// arity is a no-op, like removing any tuple the bag does not hold.
type Bag struct {
	// table is a flat bag's contents. Of a two-level bag (lv != nil) it is
	// the overlay: the entries changed since lv.base froze, where an entry
	// of count 0 is a tuple deleted over the base, a tombstone.
	table
	size  int   // total multiplicity
	arity int32 // the length of every tuple the bag holds
	// last's low 30 bits are the distinct count at the previous Clear,
	// which Clear's retention rule reads beside the table's room. Its top
	// bit is the shared mark: the arrays may be another bag's too (Clone),
	// so the first mutation copies them. Clone sets the mark on its source
	// under a read lock, concurrently with other readers, so last is
	// atomic. Its next bit is Build's mark.
	last atomic.Uint32
	// dx holds what is derived from the contents — the version counter,
	// the mutation journal and the bag's own indexes. It stays nil until
	// an index is first asked for, so a transient bag pays one word for
	// it.
	dx *derived
	// lv is nil for a flat bag — every bag the pure operators build — and
	// holds the frozen base of a two-level one (Prepare).
	lv *levels
}

// levels is the frozen half of a two-level bag. base was a table readers
// shared when the bag went two-level — a flat one, so it holds no
// tombstone — and no bag writes it again, so every bag holding it may go
// on reading it. Each bag has levels of its own (Clone copies the
// struct), so distinct and rent are its writer's.
type levels struct {
	base     table
	distinct int // the bag's distinct tuples, both levels together
	// rent is what the overlay has cost since base froze: the entries
	// copied with it plus the entries written into it. Prepare folds the
	// levels into one table once rent would reach the base's size, the
	// price of the copy the overlay stands in for.
	rent int
}

const (
	shared   = 1 << 31   // last's mark: the arrays may be another bag's too
	built    = 1 << 30   // last's mark: Build made the bag, and nothing has written it since
	fillMask = built - 1 // last's previous-Clear fill
)

// smallMax is the most entries a table without a position table has
// room for. Eight hashes scan in about the time a probe takes.
const smallMax = 8

// smallBag is a Bag allocated together with room for two entries and
// their counts, which New hands out as one object: a 2-row bag then
// costs that object alone.
type smallBag struct {
	Bag
	pb [2]*schema.Value
	ab [6]uint32 // two hashes, then two counts of two words each
}

// roomyBag is a Bag allocated together with room for smallMax entries
// and their counts: NewSized's bag for 3 to smallMax tuples, one object.
type roomyBag struct {
	Bag
	r room
}

// hashMask narrows every hash a bag keys by. It is all ones; a test
// narrows it to a few values so that tuples collide.
var hashMask = ^uint32(0)

// hashOf returns the hash a bag keys t by.
func hashOf(t schema.Tuple) uint32 { return uint32(t.Hash()) & hashMask }

// keyHash returns the hash a bag keys a tuple by, from its canonical key.
func keyHash(k []byte) uint32 { return uint32(schema.KeyHash(k)) & hashMask }

// satFill is n as a saturating count of last's fill bits.
func satFill(n int) uint32 { return uint32(min(uint64(n), fillMask)) }

// copied counts the entries copy-on-write has copied (CopiedEntries).
var copied atomic.Uint64

// CopiedEntries returns how many entries, process-wide, Clone and
// copy-on-write have copied: a small bag's at its Clone, a flat bag's
// table or a two-level bag's overlay at the first write after a Clone,
// or ahead of it in Prepare, and every entry a Prepare folds into one
// table. A Clone of any other bag copies none. Tests read the count to
// prove where copies are paid, and that they grow with what changed
// rather than with the bag.
func CopiedEntries() uint64 { return copied.Load() }

// isShared reports whether b's arrays may also be another bag's.
func (b *Bag) isShared() bool { return b.last.Load()&shared != 0 }

// isBuilt reports whether Build made b and nothing has written it since:
// its tuples are all in Build's slabs.
func (b *Bag) isBuilt() bool { return b.last.Load()&built != 0 }

// small reports whether b is a flat bag without a position table, which
// Clone copies at once, so that no mark and no levels ever reach it.
func (b *Bag) small() bool { return b.lv == nil && cap(b.p) <= smallMax }

// tupleAt returns the tuple at p, which an entry of b's table (or of an
// index or journal over b) stores.
func (b *Bag) tupleAt(p *schema.Value) schema.Tuple { return schema.TupleAt(p, int(b.arity)) }

// holds reports whether the tuple b stores at p is t: the same pointer,
// or a tuple equal under Compare — which is exactly key equality, so
// INT 2^53 and INT 2^53+1 are two tuples.
func (b *Bag) holds(p *schema.Value, t schema.Tuple) bool {
	return len(t) == int(b.arity) && (p == t.Ptr() || b.tupleAt(p).Equal(t))
}

// find is every lookup in one of b's tables. It returns the position in
// t of tu's entry (h being tu's hash) or -1, and the slot holding the
// entry, or, for a tuple t lacks, the empty slot its probe stopped at
// (-1 for a table without slots, which is scanned). A hash hit counts
// only when the entry holds tu.
func (b *Bag) find(t *table, h uint32, tu schema.Tuple) (i, s int) {
	hs := t.aux[:len(t.p)]
	sl := t.slots()
	if len(sl) == 0 {
		for i, x := range hs {
			if x == h && b.holds(t.p[i], tu) {
				return i, -1
			}
		}
		return -1, -1
	}
	for s = homeOf(h, len(sl)); ; {
		v := sl[s]
		if v == 0 {
			return -1, s
		}
		if i = int(v) - 1; hs[i] == h && b.holds(t.p[i], tu) {
			return i, s
		}
		if s++; s == len(sl) {
			s = 0
		}
	}
}

// get returns t's entry, h being t's hash, or a zero one (count 0, no
// tuple) when b does not hold t. A two-level bag's overlay is read
// before its base, and a tombstone reads as absent.
func (b *Bag) get(h uint32, t schema.Tuple) entry {
	if i, _ := b.find(&b.table, h, t); i >= 0 {
		if n := b.count(i); n > 0 {
			return entry{p: b.p[i], count: n}
		}
		return entry{}
	}
	if b.lv != nil {
		base := &b.lv.base
		if i, _ := b.find(base, h, t); i >= 0 {
			return entry{p: base.p[i], count: base.count(i)}
		}
	}
	return entry{}
}

// each calls f once per distinct tuple of b, with its hash and entry: a
// flat bag's entries in the table's order, a two-level bag's base
// entries the overlay does not shadow, then the overlay's live ones.
// Every walk over a bag's contents is each. f must not mutate b; each
// does not retain f, so a caller's closure stays on its stack.
func (b *Bag) each(f func(h uint32, e entry)) {
	if b.lv != nil {
		base := &b.lv.base
		cs := base.counts()
		for i, p := range base.p {
			h := base.aux[i]
			if j, _ := b.find(&b.table, h, b.tupleAt(p)); j < 0 {
				f(h, entry{p: p, count: countIn(cs, i)})
			}
		}
	}
	cs := b.counts()
	for i, p := range b.p {
		if n := countIn(cs, i); n > 0 {
			f(b.aux[i], entry{p: p, count: n})
		}
	}
}

// setArity makes n the arity of b, which must be empty. A change left in
// the journal window stores a tuple of the old arity, which must not be
// read under the new one, so then the window restarts, as at a Clear. (A
// no-op entry stores no tuple.)
func (b *Bag) setArity(n int) {
	if b.Distinct() != 0 {
		panic(fmt.Sprintf("bag: adding a %d-column tuple to a bag of %d-column tuples", n, b.arity))
	}
	b.arity = int32(n)
	if b.dx != nil && slices.ContainsFunc(b.dx.jour, func(e jentry) bool { return e.d != 0 }) {
		b.dx.restart(false)
	}
}

// copyLevel returns a private copy of the table b writes — a flat bag's
// contents, a two-level bag's overlay, tombstones included — with room
// for extra entries beyond its own, and counts the entries it copies.
// The copy keeps the table's own room when that suffices and is at
// most twice what is asked, so that it is memmoves alone; otherwise it
// has the room asked for.
func (b *Bag) copyLevel(extra int) table {
	n := len(b.p)
	copied.Add(uint64(n))
	c := n + extra
	if cap(b.p) >= c && cap(b.p) <= 2*c {
		c = cap(b.p)
	}
	return b.copyTo(c)
}

// private returns an eager copy of b with room for extra distinct
// tuples beyond b's, for a caller that writes it at once, where a Clone
// would only defer the copy to the first write: a flat bag whose table
// is its own from the start, one object for a small one. A flat b's
// table is copied by memmoves; a two-level b's levels fold into one.
func (b *Bag) private(extra int) *Bag {
	c := newSized(b.Distinct()+extra, b.counted())
	c.size, c.arity = b.size, b.arity
	if b.lv == nil {
		c.fill(&b.table)
		return c
	}
	b.each(func(h uint32, e entry) { c.add(h, e.p, e.count, -1) })
	return c
}

// counted reports whether a copy of b needs counts: whether b's table
// has them, or, of a two-level b, its base, or an overlay entry's count
// is above 1.
func (b *Bag) counted() bool {
	switch {
	case b.lv == nil:
		return len(b.counts()) > 0
	case len(b.lv.base.counts()) > 0:
		return true
	}
	for i := range b.p {
		if b.count(i) > 1 {
			return true
		}
	}
	return false
}

// putNew adds to b, a flat bag, an entry of a tuple b does not hold,
// under its hash h: the write of the operators that build a bag past
// addKeyed, the pure operators of ops.go. It owes no copy-on-write
// check, no journal and no arity check: addKeyed makes those, and what
// the operators build is flat, private and unindexed, of an arity they
// set themselves. The probe compares no tuple: it stops at the first
// empty slot.
func (b *Bag) putNew(h uint32, e entry) {
	b.size += e.count
	b.add(h, e.p, e.count, -1)
}

// own clears b's marks once the table b writes is one no other bag
// holds and b is about to be written. It runs only where b may be
// mutated: never concurrently with a Clone of b.
func (b *Bag) own() { b.last.Store(b.last.Load() &^ (shared | built)) }

// derived is the journal-and-index state of a bag that has been indexed.
type derived struct {
	// ver is bumped on every mutation of the bag (Add/AddBag/ApplyDelta/
	// AddMonus/Remove/Clear) since it was first indexed. An Index records the
	// version it describes: same bag plus same version means unchanged
	// contents.
	ver uint64
	// Mutation journal: the effective tuple deltas applied since version
	// jbase, in order, so indexes catch up in O(|changes|) instead of
	// rebuilding in O(|bag|). When jour is non-empty, ver == jbase +
	// len(jour) holds. jcap is the window: a quarter of the bag's rows
	// when its largest index was built (past that, applying the backlog
	// is no longer clearly cheaper than a rebuild), 256 at least.
	jour  []jentry
	jbase uint64
	jcap  int
	// owned lists the bag's own indexes (IndexOn), at most one per column
	// set. Each is at a version inside the journal window, always: the
	// bag syncs them itself before the window moves on.
	owned []*Index
}

// jentry records one mutation's effective change: the tuple as the
// bag's entry stores it (under the bag's arity; nil for a no-op), and
// the signed multiplicity delta actually applied (after clamping at
// zero). The stored pointer is the row's identity for an index (its
// at), so no key is kept.
type jentry struct {
	p *schema.Value
	d int
}

// New returns an empty bag: a small one, in one allocation.
func New() *Bag {
	sb := &smallBag{}
	sb.table = table{p: sb.pb[:0], aux: sb.ab[:len(sb.pb)]}
	return &sb.Bag
}

// NewSized returns an empty bag with room for n distinct tuples, for a
// caller that knows how many are coming (a snapshot's table header): the
// fill then never moves the table, which from empty costs about as much
// again as the table it ends with. Room for smallMax or fewer is a small
// bag's, made in one allocation; a table with more room has none for
// counts until its first count other than 1.
func NewSized(n int) *Bag { return newSized(n, false) }

// newSized is NewSized, with room for counts too past smallMax when
// counted: a small bag's room has it anyway.
func newSized(n int, counted bool) *Bag {
	switch {
	case n <= len(smallBag{}.pb):
		return New()
	case n <= smallMax:
		rb := &roomyBag{}
		rb.table = table{p: rb.r.pb[:0], aux: rb.r.ab[:smallMax]}
		return &rb.Bag
	}
	return &Bag{table: makeTable(n, counted)}
}

// Of builds a bag containing each given tuple once.
func Of(tuples ...schema.Tuple) *Bag {
	b := New()
	for _, t := range tuples {
		b.Add(t, 1)
	}
	return b
}

// Add inserts n copies of t (n may be negative to remove; multiplicities
// clamp at zero). It mutates the bag in place and returns it.
func (b *Bag) Add(t schema.Tuple, n int) *Bag {
	if n == 0 {
		return b
	}
	return b.addKeyed(hashOf(t), t, n)
}

// addKeyed is Add for callers that already hold t's hash h — iterating
// another bag, or hashing a join output from its operands' keys — so
// hot paths skip re-encoding the tuple. It writes only a level of b's
// own: a table a Clone shares is copied first, a two-level bag's overlay
// alone, and a two-level write adds to the rent. It never folds the
// levels — only Prepare does, outside the writer's lock. A flat bag's
// removed tuple leaves its table; an overlay keeps it as a tombstone
// over the base. Its first call clears Build's mark, as Clear and Adopt
// do.
func (b *Bag) addKeyed(h uint32, t schema.Tuple, n int) *Bag {
	if n == 0 {
		return b
	}
	if l := b.last.Load(); l&(shared|built) != 0 {
		if l&shared != 0 {
			if b.lv != nil {
				b.lv.rent += len(b.p)
			}
			b.table = b.copyLevel(0)
		}
		b.own()
	}
	i, s := b.find(&b.table, h, t)
	var e entry // e.p is nil when b lacks t, and stays nil for a no-op
	switch {
	case i >= 0:
		e = entry{p: b.p[i], count: b.count(i)}
	case b.lv != nil:
		e = b.get(h, t) // the base's entry, if it has one
	}
	d := 0 // effective delta after clamping
	switch {
	case e.count == 0 && n < 0:
		e.p = nil // a tombstone's tuple is not the no-op's
	case e.count == 0:
		if len(t) != int(b.arity) {
			b.setArity(len(t))
		}
		d = n
		if i >= 0 { // a tombstone
			b.setCount(i, n)
		} else {
			e.p = t.Ptr()
			b.add(h, e.p, n, s)
		}
		b.lv.wrote(1)
	case e.count+n <= 0:
		d = -e.count
		switch {
		case b.lv == nil:
			b.remove(i, s)
		case i >= 0:
			b.setCount(i, 0)
		default:
			b.add(h, e.p, 0, s)
		}
		b.lv.wrote(-1)
	default:
		d = n
		if i >= 0 {
			b.setCount(i, e.count+n)
		} else {
			b.add(h, e.p, e.count+n, s) // the base's entry, changed in the overlay
		}
		b.lv.wrote(0)
	}
	b.size += d
	if b.dx != nil {
		b.journal(e.p, d)
	}
	return b
}

// wrote records one overlay write that changed the distinct count by
// dd; a flat bag (nil levels) keeps no such record.
func (lv *levels) wrote(dd int) {
	if lv != nil {
		lv.rent++
		lv.distinct += dd
	}
}

// AddBag folds all of o's contents into b in place.
func (b *Bag) AddBag(o *Bag) *Bag {
	o.each(func(h uint32, e entry) { b.addKeyed(h, o.tupleAt(e.p), e.count) })
	return b
}

// ApplyDelta sets b := (b ∸ del) ⊎ add in place, in O(|del|+|add|) —
// the shape of every Figure 3 table update (MV from ∇MV/△MV, a log or
// differential table from a change batch). It walks the operands'
// tables with their hashes, so no tuple is encoded again, and journals
// each change like Add, so indexes cached over b keep syncing. del and
// add are only read; neither may be b itself, and a nil one is empty.
func (b *Bag) ApplyDelta(del, add *Bag) *Bag {
	if del != nil {
		del.each(func(h uint32, e entry) { b.addKeyed(h, del.tupleAt(e.p), -e.count) })
	}
	if add != nil {
		b.AddBag(add)
	}
	return b
}

// AddMonus sets b := b ⊎ (a ∸ c) in place, in O(|a|), without building
// a ∸ c: the Del half of the composition lemma's merge (Lemma 3), which
// reads c before c changes. a and c are only read; neither may be b.
func (b *Bag) AddMonus(a, c *Bag) *Bag {
	a.each(func(h uint32, e entry) {
		t := a.tupleAt(e.p)
		if n := e.count - c.get(h, t).count; n > 0 {
			b.addKeyed(h, t, n)
		}
	})
	return b
}

// Refill sets b := σ_keep(a) in place, in O(|b|+|a|): b is emptied by
// Clear, so it keeps its table by Clear's rule, and refilled with a's
// own hashes and tuples, so nothing is encoded again — a scratch bag
// refilled with changes of a steady size allocates nothing. a is only
// read, and may not be b.
func (b *Bag) Refill(a *Bag, keep func(schema.Tuple) bool) *Bag {
	b.Clear()
	a.each(func(h uint32, e entry) {
		if t := a.tupleAt(e.p); keep(t) {
			b.addKeyed(h, t, e.count)
		}
	})
	return b
}

// Remove removes up to n copies of t.
func (b *Bag) Remove(t schema.Tuple, n int) *Bag { return b.Add(t, -n) }

// clearFloor is the room below which Clear does not bother to
// reallocate: a small table's, a few hundred bytes at most.
const clearFloor = smallMax

// Clear empties the bag in place: whoever holds the bag sees it emptied,
// and the bag's own indexes (IndexOn) stay registered, empty. A bag that
// is filled and cleared in rounds — a log, a differential table — keeps
// its table's arrays, so the next round refills into storage the bag
// already owns. Retention is bounded by a rule, not a setting: the
// arrays are kept only while the table's room is within 4x of BOTH the
// fill being cleared and the one cleared before it; otherwise they are
// reallocated, pre-sized to the smaller of the two. So a one-off bulk
// load is released at its own Clear (and a bag never cleared before
// starts over with a fresh table), no bag pins more than 4x its smaller
// recent fill, and Clear costs O(the content it removes), never O(the
// most the bag ever held). (A Clear that finds the bag empty is no fill:
// it is judged by the last one alone and leaves the record as it is, so
// a log that sits out a round keeps what it had.) A table the bag shares
// with a Clone is never cleared — the clones keep their contents — so a
// shared bag starts over with a fresh table, sized by the same rule, and
// so does a two-level bag, which Clear leaves flat. A small bag stays
// small: its room is at most clearFloor.
func (b *Bag) Clear() {
	n := b.Distinct()
	fill := b.last.Load() & fillMask
	keep := int(fill) // the fill both rounds justify
	if n > 0 {
		keep = min(n, keep)
		fill = satFill(n)
	}
	shrink := cap(b.p) > max(4*keep, clearFloor)
	if shrink || b.isShared() || b.lv != nil {
		b.table = makeTable(keep, false)
	} else if len(b.p) > 0 {
		clear(b.p)
		b.p = b.p[:0]
		clear(b.slots())
		c := cap(b.p)
		b.aux = b.aux[:c+slotsFor(c)] // no counts, until a count is not 1 again
	}
	b.lv = nil
	b.last.Store(fill)
	b.size = 0
	if b.dx != nil {
		b.dx.restart(shrink)
	}
}

// restart drops the journal window of a bag that is now empty, so
// free-standing indexes behind it rebuild (cheap — the bag is empty),
// and empties the bag's own indexes in place, or, when shrink says so,
// into a fresh map: a clear is not representable as journal entries.
func (x *derived) restart(shrink bool) {
	x.ver++
	clear(x.jour)
	x.jour = x.jour[:0]
	for _, ix := range x.owned {
		if shrink {
			ix.m = make(map[string]int)
			ix.buckets, ix.free = nil, nil
		} else {
			clear(ix.m)
			clear(ix.buckets) // or the arrays past len keep the tuples alive
			ix.buckets, ix.free = ix.buckets[:0], ix.free[:0]
		}
		ix.ver = x.ver
	}
}

// journal bumps the version and appends one effective mutation: every
// bump appends exactly one entry (even a no-op clamp, d == 0),
// preserving ver == jbase + len(jour). A full window
// starts over: the bag first syncs its own indexes (IndexOn), which
// therefore never fall out of it; a free-standing index (NewIndex) left
// behind falls back to a rebuild.
func (b *Bag) journal(p *schema.Value, d int) {
	x := b.dx
	x.ver++
	if len(x.jour) >= x.jcap {
		for _, ix := range x.owned {
			ix.applyAll(x.jour[ix.ver-x.jbase:])
			ix.ver = x.ver - 1
		}
		// Zeroed, not just truncated: the backing array is reused and
		// would keep rows deleted long ago reachable until overwritten.
		clear(x.jour)
		x.jour = x.jour[:0]
	}
	if len(x.jour) == 0 {
		x.jbase = x.ver - 1
	}
	x.jour = append(x.jour, jentry{p: p, d: d})
}

// journalSince returns the effective deltas applied after version v,
// or ok=false when the journal cannot answer (v predates the current
// window, or a Clear/overflow dropped it).
func (b *Bag) journalSince(v uint64) ([]jentry, bool) {
	x := b.dx
	if x == nil {
		return nil, false
	}
	if v == x.ver {
		return nil, true
	}
	if len(x.jour) == 0 || v < x.jbase || v > x.ver {
		return nil, false
	}
	return x.jour[v-x.jbase:], true
}

// Count returns the multiplicity of t. It hashes t from a stack buffer
// and allocates nothing.
func (b *Bag) Count(t schema.Tuple) int { return b.get(hashOf(t), t).count }

// Contains reports whether t occurs at least once.
func (b *Bag) Contains(t schema.Tuple) bool { return b.Count(t) > 0 }

// Len returns the total multiplicity (|b| with duplicates).
func (b *Bag) Len() int { return b.size }

// Distinct returns the number of distinct tuples.
func (b *Bag) Distinct() int {
	if b.lv != nil {
		return b.lv.distinct
	}
	return len(b.p)
}

// Empty reports whether the bag has no tuples.
func (b *Bag) Empty() bool { return b.size == 0 }

// Clone returns a copy of b that costs one small allocation, however
// large b is: a copy-on-write handle. The two bags share b's arrays —
// of a two-level bag, both levels — both marked shared, until one of
// them is mutated; that one copies its table first (the overlay alone,
// of a two-level bag), and Clear on a shared bag starts a fresh table
// instead of emptying the shared one. So either bag may be mutated or
// cleared without the other noticing, as with a deep copy (tuples are
// immutable and always shared). Clone only reads b — it sets b's mark
// atomically — so readers may Clone a table concurrently under a read
// lock. The clone has no indexes (IndexOn) of its own yet. A small bag
// is copied at once instead — smallMax entries at most, in one object —
// and neither bag is marked; CopiedEntries counts the entries.
func (b *Bag) Clone() *Bag {
	if b.small() {
		copied.Add(uint64(len(b.p)))
		return b.private(0)
	}
	for {
		l := b.last.Load()
		if l&shared != 0 || b.last.CompareAndSwap(l, l|shared) {
			break
		}
	}
	c := &Bag{table: b.table, size: b.size, arity: b.arity}
	if b.lv != nil {
		lv := *b.lv
		c.lv = &lv
	}
	c.last.Store(shared)
	return c
}

// Prepare is the half of a write to a shared bag that its single writer
// pays outside the lock its readers take. pending is how many entries
// the write is expected to change. Prepare returns b's contents in the
// form the write should find them — a bag that shares no writable table
// with any other — or nil when b may be written as it is. It only reads
// b, so readers may go on Cloning b meanwhile; under the exclusive lock
// the writer installs the result with Adopt, in O(1), and the write
// itself then copies nothing.
//
// The form is ski rental: rent an overlay until the rent paid would
// reach the price of a copy.
//   - A flat bag no Clone shares owes nothing, and no Clone shares a
//     small bag.
//   - A flat, shared bag is copied whole, with room for pending more,
//     when the write changes at least as many entries as it holds;
//     otherwise it goes two-level, in O(1): its table is frozen as the
//     base, under an empty overlay with room for pending entries.
//   - A two-level bag is folded into one flat table, with room for its
//     contents and pending more, once its rent, plus its overlay if that
//     must be copied, plus pending reaches the base's size; otherwise a
//     shared overlay is copied, and a private one owes nothing.
//
// Between two folds the overlay costs at most one copy of the base, so
// no sequence of writes copies more than copying the bag at every write
// would; with a Clone before every write of Δ entries, a fold comes
// every √(2·|b|/Δ) writes or so. The rule compares against the base's
// own size, with no constant to tune. A write larger than pending only
// makes the next Prepare fold.
func (b *Bag) Prepare(pending int) *Bag {
	isShared := b.isShared()
	if b.lv == nil {
		n := len(b.p)
		switch {
		case !isShared:
			return nil
		case pending >= n:
			return &Bag{table: b.copyLevel(pending), size: b.size, arity: b.arity}
		}
		p := &Bag{table: makeTable(pending, true), size: b.size, arity: b.arity}
		p.lv = &levels{base: b.table, distinct: n}
		return p
	}
	owed := b.lv.rent + pending
	if isShared {
		owed += len(b.p)
	}
	switch {
	case owed >= len(b.lv.base.p):
		copied.Add(uint64(b.lv.distinct))
		return b.private(pending)
	case isShared:
		lv := *b.lv
		lv.rent += len(b.p)
		p := &Bag{table: b.copyLevel(pending), size: b.size, arity: b.arity}
		p.lv = &lv
		return p
	}
	return nil
}

// Adopt makes p's levels b's own, in O(1), and clears b's shared mark.
// p must be what b.Prepare returned, with b unchanged since, and is
// spent: it must not be used again. b keeps its indexes and its journal
// — its contents are the same.
func (b *Bag) Adopt(p *Bag) {
	b.table, b.lv = p.table, p.lv
	b.own()
	p.table, p.lv = table{}, nil
}

// Each calls f once per distinct tuple with its multiplicity: a flat
// bag's in the order they arrived, but that a removal moves the last
// tuple into the removed one's place. f must not mutate the bag.
func (b *Bag) Each(f func(t schema.Tuple, n int)) {
	b.each(func(_ uint32, e entry) { f(b.tupleAt(e.p), e.count) })
}

// EachApplied calls f with every tuple of σ_keep((b ∸ del) ⊎ add) and its
// multiplicity, without building that bag: b's entries, each count
// reduced by one lookup in del, then add's entries. A tuple of both
// b ∸ del and add is passed twice; its multiplicity is the sum. A nil
// keep keeps every tuple, and a nil del or add is empty. Nothing is
// copied or marked; f must not mutate the three bags.
func (b *Bag) EachApplied(del, add *Bag, keep func(schema.Tuple) bool, f func(t schema.Tuple, n int)) {
	b.eachApplied(del, add, keep, func(_ uint32, t schema.Tuple, n int) { f(t, n) })
}

// eachApplied is EachApplied handing f each tuple's hash as well.
func (b *Bag) eachApplied(del, add *Bag, keep func(schema.Tuple) bool, f func(h uint32, t schema.Tuple, n int)) {
	b.each(func(h uint32, e entry) {
		t := b.tupleAt(e.p)
		if keep != nil && !keep(t) {
			return
		}
		n := e.count
		if del != nil {
			n -= del.get(h, t).count
		}
		if n > 0 {
			f(h, t, n)
		}
	})
	if add == nil {
		return
	}
	add.each(func(h uint32, e entry) {
		if t := add.tupleAt(e.p); keep == nil || keep(t) {
			f(h, t, e.count)
		}
	})
}

// EachOrdered calls f once per distinct tuple in canonical order, the
// order of Tuple.Compare (a total order whose ties are exactly equal
// tuples), which Tuples and String use too — deterministic iteration for
// ordered sinks such as snapshots, rendered output, and floating-point
// accumulation, whatever order the bag's history left its entries in,
// at the cost of one slice of the d distinct entries and an O(d log d)
// sort of it. f must not mutate the bag.
func (b *Bag) EachOrdered(f func(t schema.Tuple, n int)) {
	es := make([]entry, 0, b.Distinct())
	b.each(func(_ uint32, e entry) { es = append(es, e) })
	slices.SortFunc(es, func(x, y entry) int { return b.tupleAt(x.p).Compare(b.tupleAt(y.p)) })
	for _, e := range es {
		f(b.tupleAt(e.p), e.count)
	}
}

// Tuples returns every tuple with duplicates expanded, in canonical
// (Tuple.Compare) order; intended for tests and display.
func (b *Bag) Tuples() []schema.Tuple {
	out := make([]schema.Tuple, 0, b.size)
	b.each(func(_ uint32, e entry) {
		for i := 0; i < e.count; i++ {
			out = append(out, b.tupleAt(e.p))
		}
	})
	slices.SortFunc(out, schema.Tuple.Compare)
	return out
}

// Equal reports whether two bags contain the same tuples with the same
// multiplicities.
func (b *Bag) Equal(o *Bag) bool {
	if b.size != o.size || b.Distinct() != o.Distinct() {
		return false
	}
	eq := true
	b.each(func(h uint32, e entry) { eq = eq && o.get(h, b.tupleAt(e.p)).count == e.count })
	return eq
}

// SubBagOf reports b ⊑ o: every tuple's multiplicity in b is ≤ its
// multiplicity in o.
func (b *Bag) SubBagOf(o *Bag) bool {
	if b.size > o.size {
		return false
	}
	sub := true
	b.each(func(h uint32, e entry) { sub = sub && o.get(h, b.tupleAt(e.p)).count >= e.count })
	return sub
}

// String renders the bag as {t1, t1, t2, ...} in canonical order.
func (b *Bag) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	for i, t := range b.Tuples() {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(t.String())
	}
	sb.WriteByte('}')
	return sb.String()
}
