// Package bag implements finite bags (multisets) of tuples with the
// operations of the paper's bag algebra BA (Section 2.1): additive union
// ⊎, monus ∸, duplicate elimination ε, selection σ, projection Π, and
// cartesian product ×, plus the derived operations min (minimal
// intersection), max (maximal union), and SQL EXCEPT.
//
// A Bag maps each distinct tuple to its multiplicity, keyed by the
// tuple's 64-bit hash (schema.Tuple.Hash): no key string is stored. A
// tuple held exactly once — nearly every row of a keyed table, most of
// a projected view's — is stored as its pointer alone, in a unit map;
// only a tuple of another multiplicity pays for a count, in a second,
// counted map, and a tuple moves between the two only when its count
// crosses 1. A hash is a hit only when the stored tuple compares equal
// (Tuple.Compare), and a second tuple under a hash another holds goes to
// a spill keyed by its canonical key string, which stays nil until the
// first collision. All operations are pure: they return fresh bags and
// never mutate operands, except the explicitly-mutating Add/AddBag/
// ApplyDelta/AddMonus/Remove/Clear/Adopt used by the storage and
// maintenance layers, and the join kernel (Join.Indexed, Join.Hash),
// which writes into the empty bag its caller gives it. Walks between
// bags pass each entry's hash along, so no merge encodes a tuple again.
//
// A bag of a few distinct tuples — a transaction's ∇R or △R, most
// deltas — keeps them in a slice of (hash, entry) slots, found by a
// linear scan on the hash, and pays no Go map: New allocates the bag
// together with room for two slots. Its (smallMax+1)-th distinct tuple,
// or an index asked of it, moves it to a map for good.
//
// Clone of a map bag is copy-on-write (a small one is copied at once):
// the copy is a handle on the source's map, and whichever of the two
// bags is mutated first copies the map then — or, for a view table that
// readers Clone under a read lock, its single writer prepares the write
// ahead of the exclusive lock (Prepare, then Adopt under the lock), so
// readers never wait for a copy. A bag the writer prepared while readers
// share it is written as two levels: the shared map, frozen as a base,
// under a private overlay of the tuples changed since. A write after a
// Clone then copies the overlay, not the bag, until the overlay has
// cost what a copy of the base would (Prepare's rule), when the two fold
// back into one flat map. The counted map and the spill ride with the
// unit map: shared, copied, frozen and folded with it.
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
	"maps"
	"math"
	"slices"
	"strings"
	"sync/atomic"

	"dvm/internal/schema"
)

// entry is one distinct tuple and its multiplicity. The tuple is stored
// as a pointer to its first value (schema.Tuple.Ptr) under the bag's
// arity — 16 bytes, so a counted map's slot with its 8-byte hash is 24,
// where a tuple's slice header would make it 40. A unit map stores the
// pointer alone, and every reader is handed the entry it stands for.
type entry struct {
	p     *schema.Value
	count int
}

// tier is one level of a bag's contents, its entries by tuple hash in
// two maps that never hold the same hash: u holds each tuple of
// multiplicity exactly 1 as its pointer — a 16-byte slot — and c.m
// every other entry. c.x is the spill, which holds by canonical key each
// entry whose hash another entry of the maps held when it was written,
// whatever its count. A tuple lives in the maps or in the spill, never
// both: a lookup reads u under the hash, c.m only when u lacks the hash
// and c.m is not empty, and the spill only when the maps' entry there is
// another tuple. c stays nil until a promoted small bag's first counted
// tuple or collision, and c.m and c.x stay nil until their first entry.
type tier struct {
	u map[uint64]*schema.Value
	c *side
}

// side is the rarer half of a tier, behind one pointer so that a Bag
// stays within 80 bytes: the counted map and the spill. A side is
// written through one tier only — a Clone copies it into its own —
// except a frozen base's, which no tier writes.
type side struct {
	m map[uint64]entry
	x map[string]entry
}

// tomb is a tombstone: the unit map's value, in a two-level bag's
// overlay, for a tuple the overlay deleted over the base. It is no
// tuple's pointer — an arity-0 tuple's is nil — and it keeps no tuple
// alive.
var tomb = new(schema.Value)

// cm returns t's counted map, nil when it has none.
func (t tier) cm() map[uint64]entry {
	if t.c == nil {
		return nil
	}
	return t.c.m
}

// spill returns t's spill, nil when it has none.
func (t tier) spill() map[string]entry {
	if t.c == nil {
		return nil
	}
	return t.c.x
}

// len returns the entries of t, tombstones included.
func (t tier) len() int { return len(t.u) + len(t.cm()) + len(t.spill()) }

// at returns the entry t's maps keep under hash h — a tombstone reads as
// entry{} — and whether they keep one.
func (t tier) at(h uint64) (entry, bool) {
	if p, ok := t.u[h]; ok {
		if p == tomb {
			return entry{}, true
		}
		return entry{p: p, count: 1}, true
	}
	if m := t.cm(); len(m) > 0 {
		e, ok := m[h]
		return e, ok
	}
	return entry{}, false
}

// has reports whether t's maps keep an entry under h, a tombstone
// included: in a two-level bag, whether the overlay shadows the base's.
func (t tier) has(h uint64) bool {
	_, ok := t.at(h)
	return ok
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
	// tier is a flat bag's contents. Of a two-level bag (lv != nil) it is
	// the overlay: the entries changed since lv.base froze, where tomb in
	// u (or a spill entry of count 0) is a deleted tuple. A small bag has
	// none (u == nil): its entries are s.
	tier
	// s holds a small bag's entries, at most smallMax, with their hashes.
	// A small bag is always flat, private and unindexed: Clone copies it,
	// so no mark, no levels and no derived state ever reach it.
	s     []slot
	size  int // total multiplicity
	arity int // the length of every tuple the bag holds
	// peak is the most entries the tier has held since its maps were
	// allocated (a map's buckets only grow, so it bounds the capacity of
	// each); last's low 31 bits are the distinct count at the previous
	// Clear, and Clear's retention rule reads both. last's top bit is the
	// shared mark: the maps may be another bag's too (Clone), so the first
	// mutation copies them. Clone sets the mark on its source under a read
	// lock, concurrently with other readers, so last is atomic. Both counts
	// saturate, and together they fit one word. addKeyed keeps peak, but
	// the pure operators write past it (put) and leave peak behind; Clear
	// takes max(peak, the distinct count).
	peak uint32
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

// levels is the frozen half of a two-level bag. base was a tier readers
// shared when the bag went two-level — a flat one, so it holds no
// tombstone — and no bag writes it again, so every bag holding it may go
// on reading it. Each bag has levels of its own (Clone copies the
// struct), so distinct and rent are its writer's.
type levels struct {
	base     tier
	distinct int // the bag's distinct tuples, both levels together
	// rent is what the overlay has cost since base froze: the entries
	// copied with it plus the entries written into it. Prepare folds the
	// levels into one map once rent would reach the base's size, the
	// price of the copy the overlay stands in for.
	rent int
}

const (
	shared   = 1 << 31   // last's mark: m may be another bag's map too
	built    = 1 << 30   // last's mark: Build made the bag, and nothing has written it since
	fillMask = built - 1 // last's previous-Clear fill
)

// slot is a small bag's entry with its tuple's hash, kept so that a
// transaction's ∇R/△R merges into every view's log by hash (addKeyed),
// once per view, without hashing its tuples again. Two slots may share a
// hash: the scan compares the tuples.
type slot struct {
	h uint64
	e entry
}

// smallMax is the most distinct entries a bag keeps in slots. Eight
// hashes scan in about the time a map looks one up.
const smallMax = 8

// smallBag is a Bag allocated together with its first slots, which New
// hands out as one object: a 2-row bag then costs that object alone.
type smallBag struct {
	Bag
	buf [2]slot
}

// roomyBag is a Bag allocated together with room for all smallMax
// slots: NewSized's bag for 3 to smallMax tuples, one object.
type roomyBag struct {
	Bag
	buf [smallMax]slot
}

// mapBag is a map bag allocated together with its tier's side: a bag
// made as a map, by New's kin or a Clone or Prepare, pays no allocation
// of its own for its first counted tuple or collision beyond the map
// that takes it. (A promoted small bag allocates its side then.)
type mapBag struct {
	Bag
	sd side
}

// newMapBag returns a map bag of size and arity 0 whose tier is u and a
// side holding c, the side allocated with the bag.
func newMapBag(u map[uint64]*schema.Value, c side) *Bag {
	mb := &mapBag{sd: c}
	mb.tier = tier{u: u, c: &mb.sd}
	return &mb.Bag
}

// sized returns a unit map and a side with room for units and counts
// entries; a counted map for none stays nil.
func sized(units, counts int) (map[uint64]*schema.Value, side) {
	var c side
	if counts > 0 {
		c.m = make(map[uint64]entry, counts)
	}
	return make(map[uint64]*schema.Value, units), c
}

// split divides room for n entries between a unit map and a counted map
// as b's own entries divide between them (a small bag's by their
// counts): how a map sized for a bag's contents, its Clear or its
// overlay is sized in both halves.
func (b *Bag) split(n int) (units, counts int) {
	var d, c int
	switch {
	case b.u == nil:
		d = len(b.s)
		for _, sl := range b.s {
			if sl.e.count != 1 {
				c++
			}
		}
	case b.lv != nil:
		d, c = b.lv.base.len()+b.tier.len(), len(b.lv.base.cm())+len(b.cm())
	default:
		d, c = b.tier.len(), len(b.cm())
	}
	if c == 0 {
		return n, 0
	}
	counts = int(int64(n) * int64(c) / int64(d))
	return n - counts, counts
}

// hashMask narrows every hash a bag keys by. It is all ones; a test
// narrows it to a few values so that tuples collide.
var hashMask = ^uint64(0)

// hashOf returns the hash a bag keys t by.
func hashOf(t schema.Tuple) uint64 { return t.Hash() & hashMask }

// keyHash returns the hash a bag keys a tuple by, from its canonical key.
func keyHash(k []byte) uint64 { return schema.KeyHash(k) & hashMask }

// sat32 is n as a saturating uint32.
func sat32(n int) uint32 { return uint32(min(uint64(n), math.MaxUint32)) }

// satFill is n as a saturating count of last's fill bits.
func satFill(n int) uint32 { return uint32(min(uint64(n), fillMask)) }

// copied counts the entries copy-on-write has copied (CopiedEntries).
var copied atomic.Uint64

// CopiedEntries returns how many entries, process-wide, Clone and
// copy-on-write have copied: a small bag's slots at its Clone, a flat
// bag's whole map or a two-level bag's overlay at the first write after
// a Clone, or ahead of it in Prepare, and every entry a Prepare folds
// into one map. A Clone of a map copies none. Tests read the count to
// prove where copies are paid, and that they grow with what changed
// rather than with the bag.
func CopiedEntries() uint64 { return copied.Load() }

// isShared reports whether b's map may also be another bag's.
func (b *Bag) isShared() bool { return b.last.Load()&shared != 0 }

// isBuilt reports whether Build made b and nothing has written it since:
// its tuples are all in Build's slabs.
func (b *Bag) isBuilt() bool { return b.last.Load()&built != 0 }

// tupleAt returns the tuple at p, which an entry of b's map (or of an
// index or journal over b) stores.
func (b *Bag) tupleAt(p *schema.Value) schema.Tuple { return schema.TupleAt(p, b.arity) }

// holds reports whether the tuple b stores at p is t: the same pointer,
// or a tuple equal under Compare — which is exactly key equality, so
// INT 2^53 and INT 2^53+1 are two tuples.
func (b *Bag) holds(p *schema.Value, t schema.Tuple) bool {
	return len(t) == b.arity && (p == t.Ptr() || b.tupleAt(p).Equal(t))
}

// get returns t's entry, h being t's hash, or a zero one (count 0, no
// tuple) when b does not hold t.
func (b *Bag) get(h uint64, t schema.Tuple) entry {
	e, _ := b.lookup(h, t)
	return e
}

// lookup is every lookup of a bag's contents. It returns t's entry (h is
// t's hash), or a zero one when b does not hold t, and where the entry
// lives: spill is true for an entry of the spill, and for a tuple b
// lacks whose hash another tuple holds in the maps, so that a new entry
// must go to the spill. A small bag's slots are scanned, a two-level
// bag's overlay is read before its base, and a tombstone reads as
// absent. The spill is read only when the maps' entry under h is not t.
func (b *Bag) lookup(h uint64, t schema.Tuple) (e entry, spill bool) {
	if b.u == nil {
		for _, sl := range b.s {
			if sl.h == h && b.holds(sl.e.p, t) {
				return sl.e, false
			}
		}
		return entry{}, false
	}
	e, ok := b.at(h)
	if !ok && b.lv != nil {
		e, _ = b.lv.base.at(h)
	}
	if e.count > 0 && b.holds(e.p, t) {
		return e, false
	}
	taken := e.count > 0
	var bx map[string]entry
	if b.lv != nil {
		bx = b.lv.base.spill()
	}
	if x := b.spill(); x != nil || bx != nil {
		var kb [128]byte
		k := t.AppendKey(kb[:0])
		e, ok := x[string(k)]
		if !ok {
			e = bx[string(k)]
		}
		if e.count > 0 {
			return e, true
		}
	}
	return entry{}, taken
}

// each calls f once per distinct tuple of b, with its hash and entry, in
// no particular order: a small bag's slots, a two-level bag's base
// entries the overlay does not shadow, then the overlay's live ones —
// each level's unit map, counted map and spill in turn. An entry of a
// spill has its hash computed again. Every walk over a bag's contents is
// each. f must not mutate b; each does not retain f, so a caller's
// closure stays on its stack.
func (b *Bag) each(f func(h uint64, e entry)) {
	if b.u == nil {
		for _, sl := range b.s {
			f(sl.h, sl.e)
		}
		return
	}
	x := b.spill()
	if b.lv != nil {
		base := b.lv.base
		for h, p := range base.u {
			if !b.has(h) {
				f(h, entry{p: p, count: 1})
			}
		}
		for h, e := range base.cm() {
			if !b.has(h) {
				f(h, e)
			}
		}
		for k, e := range base.spill() {
			if _, ok := x[k]; !ok {
				f(hashOf(b.tupleAt(e.p)), e)
			}
		}
	}
	for h, p := range b.u {
		if p != tomb {
			f(h, entry{p: p, count: 1})
		}
	}
	for h, e := range b.cm() {
		f(h, e)
	}
	for _, e := range x {
		if e.count > 0 {
			f(hashOf(b.tupleAt(e.p)), e)
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
	b.arity = n
	if b.dx != nil && slices.ContainsFunc(b.dx.jour, func(e jentry) bool { return e.d != 0 }) {
		b.dx.restart(false)
	}
}

// copyLevel returns a private copy of the tier b writes — a flat bag's
// contents, a two-level bag's overlay, tombstones included — as a unit
// map with room for extra entries beyond its own and a side, and counts
// the entries it copies. Each map is copied into one made for its
// entries, never cloned: a clone keeps whatever capacity the map once
// grew to, and a map's capacity rounds up to a power of two, so room
// beyond the write to come can double the copy.
func (b *Bag) copyLevel(extra int) (map[uint64]*schema.Value, side) {
	copied.Add(uint64(b.tier.len()))
	u, c := sized(len(b.u)+extra, len(b.cm()))
	for h, p := range b.u {
		u[h] = p
	}
	for h, e := range b.cm() {
		c.m[h] = e
	}
	c.x = maps.Clone(b.spill())
	return u, c
}

// private returns an eager copy of b: a flat bag whose maps (or slots)
// are its own from the start, each sized for its share of b's contents,
// for a caller that writes it at once, where a Clone would only defer
// the copy to the first write.
func (b *Bag) private() *Bag {
	if b.u == nil {
		c := New()
		c.s = append(c.s, b.s...)
		c.size, c.arity = b.size, b.arity
		return c
	}
	c := newMapBag(sized(b.split(b.Distinct())))
	c.arity = b.arity
	b.each(func(h uint64, e entry) { c.putNew(h, e, e.count) })
	return c
}

// promote moves a small bag's slots into a map with room for n entries,
// for good: nothing moves a bag back.
func (b *Bag) promote(n int) {
	s, size := b.s, b.size
	units, counts := b.split(n)
	b.u, b.s, b.peak = make(map[uint64]*schema.Value, units), nil, sat32(n)
	if counts > 0 {
		b.sided().m = make(map[uint64]entry, counts)
	}
	for _, sl := range s {
		b.putNew(sl.h, sl.e, sl.e.count)
	}
	b.size = size
}

// sided returns b's side, allocated at a promoted bag's first need.
func (b *Bag) sided() *side {
	if b.c == nil {
		b.c = &side{}
	}
	return b.c
}

// put sets the entry of a tuple, whose hash is h, to e and adds n to b's
// size: the one write of a bag's contents — addKeyed's, and that of the
// operators that build a bag past addKeyed, the pure operators of ops.go
// and the join kernel's projected path. e.p is the pointer b stores for
// a tuple it holds (a new tuple's own, otherwise), and spill is where
// the entry lives or goes (lookup). b held the tuple e.count−n times
// before. An entry of count 0 deletes the tuple, which b must hold; in a
// two-level bag's overlay it leaves the tuple's tombstone. put owes no
// copy-on-write check, no journal and no arity check: addKeyed makes
// those, and what the operators build is flat, private and unindexed, of
// an arity they set themselves. A new tuple in a full small bag promotes
// it. Only an entry of the spill costs a key string.
func (b *Bag) put(h uint64, e entry, n int, spill bool) {
	b.size += n
	if b.u == nil {
		i := 0
		for i < len(b.s) && (b.s[i].h != h || b.s[i].e.p != e.p) {
			i++
		}
		switch {
		case e.count == 0:
			last := len(b.s) - 1
			b.s[i] = b.s[last]
			b.s[last] = slot{} // or the backing array keeps the tuple alive
			b.s = b.s[:last]
			return
		case i < len(b.s):
			b.s[i].e = e
			return
		case len(b.s) < smallMax:
			b.s = append(b.s, slot{h: h, e: e})
			return
		}
		b.promote(smallMax + 1)
		spill = b.has(h)
	}
	if spill {
		b.putSpill(b.tupleAt(e.p).Key(), e)
		return
	}
	b.set(h, e, e.count-n)
}

// set is put's write of the maps, for a tuple b held was times before. A
// count of 1 goes to the unit map and any other count to the counted
// map, so an entry moves between the two only when its count crosses 1.
// A count of 0 deletes the entry, or in an overlay leaves a tombstone in
// the unit map. An overlay's unit map may hold a tombstone where the
// tuple had count 0, and nothing where the base holds the tuple: a count
// rising past 1 there deletes the tombstone, or finds nothing to delete.
func (b *Bag) set(h uint64, e entry, was int) {
	switch {
	case e.count == 1:
		b.u[h] = e.p
	case e.count > 1:
		if b.c == nil || b.c.m == nil {
			b.sided().m = make(map[uint64]entry)
		}
		b.c.m[h] = e
		if was == 1 || was == 0 && b.lv != nil {
			delete(b.u, h)
		}
		return
	case b.lv != nil:
		b.u[h] = tomb
	case was == 1:
		delete(b.u, h)
	}
	if was > 1 {
		delete(b.cm(), h)
	}
}

// putSpill is put's write of the spill, under the tuple's key k.
func (b *Bag) putSpill(k string, e entry) {
	x := b.spill()
	if e.count == 0 && b.lv == nil {
		if len(x) == 1 {
			b.c.x = nil // k was its last entry: lookups skip the spill again
		} else {
			delete(x, k)
		}
		return
	}
	if x == nil {
		x = make(map[string]entry)
		b.sided().x = x
	}
	if e.count == 0 {
		e = entry{} // a tombstone, which keeps no tuple alive
	}
	x[k] = e
}

// putNew is put for an entry of a tuple that b, a flat bag, does not
// hold, whose count n is: it goes to the spill if another tuple holds its
// hash.
func (b *Bag) putNew(h uint64, e entry, n int) {
	b.put(h, e, n, b.has(h))
}

// own clears b's marks once the tier b writes is one no other bag holds
// and b is about to be written, and starts peak from the tier's size. It
// runs only where b may be mutated: never concurrently with a Clone of b.
func (b *Bag) own() {
	b.peak = sat32(b.tier.len())
	b.last.Store(b.last.Load() &^ (shared | built))
}

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
	sb.s = sb.buf[:0]
	return &sb.Bag
}

// newMap returns an empty bag that is a map from the start.
func newMap() *Bag { return newMapBag(sized(0, 0)) }

// newFor returns an empty bag for at most n distinct tuples, in the
// representation n picks: an operator whose output is bounded by its
// operands' sizes never passes a large output through the slots.
func newFor(n int) *Bag {
	if n > smallMax {
		return newMap()
	}
	return New()
}

// NewSized returns an empty bag with room for n distinct tuples, for a
// caller that knows how many are coming (a snapshot's table header): the
// fill then never regrows the map, which from empty costs about as much
// again as the map it ends with. The room is the unit map's: a tuple of
// another multiplicity goes to a counted map that grows from empty.
// Room for smallMax or fewer is a small bag's, made in one allocation.
func NewSized(n int) *Bag {
	switch {
	case n <= len(smallBag{}.buf):
		return New()
	case n <= smallMax:
		rb := &roomyBag{}
		rb.s = rb.buf[:0]
		return &rb.Bag
	}
	b := newMapBag(sized(n, 0))
	b.peak = sat32(n)
	return b
}

// Of builds a bag containing each given tuple once.
func Of(tuples ...schema.Tuple) *Bag {
	b := New()
	for _, t := range tuples {
		b.Add(t, 1)
	}
	return b
}

// FromCounts builds a bag from tuple/multiplicity pairs.
func FromCounts(pairs map[string]struct {
	Tuple schema.Tuple
	Count int
}) *Bag {
	b := New()
	for _, p := range pairs {
		b.Add(p.Tuple, p.Count)
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
// hot paths skip re-encoding the tuple. It
// writes only a level of b's own: a map a Clone shares is copied first,
// a two-level bag's overlay alone, and a two-level write adds to the
// rent. It never folds the levels — only Prepare does, outside the
// writer's lock. A small bag is written in its slots (put), and promoted
// by a new tuple they have no room for. Its first call clears Build's
// mark, as Clear and Adopt do.
func (b *Bag) addKeyed(h uint64, t schema.Tuple, n int) *Bag {
	if n == 0 {
		return b
	}
	if l := b.last.Load(); l&(shared|built) != 0 {
		if l&shared != 0 {
			if b.lv != nil {
				b.lv.rent += b.tier.len()
			}
			u, c := b.copyLevel(0)
			b.u = u
			if b.c != nil { // b's own: a Clone copies the side, not its pointer
				*b.c = c
			}
		}
		b.own()
	}
	e, spill := b.lookup(h, t) // e.p is nil when b lacks t, and stays nil for a no-op
	d := 0                     // effective delta after clamping
	switch {
	case e.count == 0:
		if n > 0 {
			if len(t) != b.arity {
				b.setArity(len(t))
			}
			e = entry{p: t.Ptr(), count: n}
			b.put(h, e, n, spill)
			d = n
			b.peak = max(b.peak, sat32(b.tier.len()))
			b.lv.wrote(1)
		}
	case e.count+n <= 0:
		d = -e.count
		b.put(h, entry{p: e.p}, d, spill) // a tombstone in an overlay, over the base's entry if it has one
		b.lv.wrote(-1)
	default:
		d = n
		e.count += n
		b.put(h, e, n, spill)
		b.lv.wrote(0)
	}
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
	o.each(func(h uint64, e entry) { b.addKeyed(h, o.tupleAt(e.p), e.count) })
	return b
}

// ApplyDelta sets b := (b ∸ del) ⊎ add in place, in O(|del|+|add|) —
// the shape of every Figure 3 table update (MV from ∇MV/△MV, a log or
// differential table from a change batch). It walks the operands' maps
// by hash, so no tuple is encoded again, and journals each change like
// Add, so indexes cached over b keep syncing. del and add are only
// read; neither may be b itself, and a nil one is empty.
func (b *Bag) ApplyDelta(del, add *Bag) *Bag {
	if del != nil {
		del.each(func(h uint64, e entry) { b.addKeyed(h, del.tupleAt(e.p), -e.count) })
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
	a.each(func(h uint64, e entry) {
		t := a.tupleAt(e.p)
		if n := e.count - c.get(h, t).count; n > 0 {
			b.addKeyed(h, t, n)
		}
	})
	return b
}

// Refill sets b := σ_keep(a) in place, in O(|b|+|a|): b is emptied by
// Clear, so it keeps its buckets by Clear's rule, and refilled with a's
// own hashes and tuples, so nothing is encoded again — a scratch bag
// refilled with changes of a steady size allocates nothing. a is only
// read, and may not be b.
func (b *Bag) Refill(a *Bag, keep func(schema.Tuple) bool) *Bag {
	b.Clear()
	a.each(func(h uint64, e entry) {
		if t := a.tupleAt(e.p); keep(t) {
			b.addKeyed(h, t, e.count)
		}
	})
	return b
}

// Remove removes up to n copies of t.
func (b *Bag) Remove(t schema.Tuple, n int) *Bag { return b.Add(t, -n) }

// clearFloor is the capacity below which Clear does not bother to
// reallocate: one bucket group's worth, a few hundred bytes at most.
const clearFloor = 8

// Clear empties the bag in place: whoever holds the bag sees it emptied,
// and the bag's own indexes (IndexOn) stay registered, empty. A bag that
// is filled and cleared in rounds — a log, a differential table — keeps
// its maps' buckets, the counted map's with the unit map's, so the next
// round refills into storage the bag already owns. Retention is bounded
// by a rule, not a setting: the buckets are kept only while the maps'
// capacity (peak) is within 4x of BOTH the fill being cleared and the
// one cleared before it; otherwise the maps are reallocated, pre-sized
// to the smaller of the two, split between them as the contents being
// cleared were (split). So a one-off
// bulk load is released at its own Clear (and a bag never cleared
// before starts over with a fresh map), no bag pins more than 4x its
// smaller recent fill, and Clear costs O(the content it removes), never
// O(the most the bag ever held). (A Clear that finds the bag empty is no
// fill: it is judged by the last one alone and leaves the record as it
// is, so a log that sits out a round keeps what it had.) A map the bag
// shares with a Clone is never cleared — the clones keep their contents
// — so a shared bag starts over with fresh maps, sized by the same
// rule, and so does a two-level bag, which Clear leaves flat. A small
// bag stays small: its slots are at most smallMax.
func (b *Bag) Clear() {
	n := b.Distinct()
	fill := b.last.Load() & fillMask
	keep := int(fill) // the fill both rounds justify
	if n > 0 {
		keep = min(n, keep)
		fill = satFill(n)
	}
	if b.u == nil {
		clear(b.s)
		b.s = b.s[:0]
		b.last.Store(fill)
		b.size = 0
		return
	}
	shrink := max(int(b.peak), n) > max(4*keep, clearFloor)
	if shrink || b.isShared() || b.lv != nil {
		u, c := sized(b.split(keep))
		b.u = u
		if b.c != nil {
			*b.c = c
		}
		b.peak = sat32(keep)
	} else {
		clear(b.u)
		if b.c != nil {
			clear(b.c.m)
			b.c.x = nil
		}
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
	switch {
	case b.u == nil:
		return len(b.s)
	case b.lv != nil:
		return b.lv.distinct
	}
	return b.tier.len()
}

// Empty reports whether the bag has no tuples.
func (b *Bag) Empty() bool { return b.size == 0 }

// Clone returns a copy of b that costs one or two small allocations,
// however large b is: a copy-on-write handle. The two bags share b's
// maps — of a two-level bag, both levels — both marked shared, until one
// of them is mutated; that one copies the maps first (the overlay alone,
// of a two-level bag), and Clear on a shared bag starts fresh maps
// instead of emptying the shared ones. The clone's side is its own, a
// copy of b's that shares b's maps. So either bag may be mutated or
// cleared without the other noticing, as with a deep copy (tuples are
// immutable and always shared). Clone only reads b — it sets b's mark
// atomically — so readers may Clone a table concurrently under a read
// lock. The clone has no indexes (IndexOn) of its own yet. A small bag
// is copied at once instead — smallMax slots at most, in the clone's own
// New or one slice beside it — and neither bag is marked; CopiedEntries
// counts the slots.
func (b *Bag) Clone() *Bag {
	if b.u == nil {
		copied.Add(uint64(len(b.s)))
		return b.private()
	}
	for {
		l := b.last.Load()
		if l&shared != 0 || b.last.CompareAndSwap(l, l|shared) {
			break
		}
	}
	var sd side
	if b.c != nil {
		sd = *b.c
	}
	c := newMapBag(b.u, sd)
	c.size, c.arity = b.size, b.arity
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
// form the write should find them — a bag that shares no writable map
// with any other — or nil when b may be written as it is. It only reads
// b, so readers may go on Cloning b meanwhile; under the exclusive lock
// the writer installs the result with Adopt, in O(1), and the write
// itself then copies nothing.
//
// The form is ski rental: rent an overlay until the rent paid would
// reach the price of a copy.
//   - A flat bag no Clone shares owes nothing, and no Clone shares a
//     small bag.
//   - A flat, shared bag is copied whole when the write changes at least
//     as many entries as it holds; otherwise it goes two-level, in O(1):
//     its maps are frozen as the base, under an empty overlay sized for
//     pending entries.
//   - A two-level bag is folded into one flat tier, sized for its
//     contents, once its rent, plus its overlay if that must be copied,
//     plus pending reaches the base's size; otherwise a shared overlay
//     is copied, and a private one owes nothing.
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
		n := b.tier.len()
		switch {
		case !isShared:
			return nil
		case pending >= n:
			p := newMapBag(b.copyLevel(0))
			p.size, p.arity = b.size, b.arity
			return p
		}
		p := newMapBag(sized(b.split(pending)))
		p.size, p.arity, p.lv = b.size, b.arity, &levels{base: b.tier, distinct: n}
		return p
	}
	owed := b.lv.rent + pending
	if isShared {
		owed += b.tier.len()
	}
	switch {
	case owed >= b.lv.base.len():
		copied.Add(uint64(b.lv.distinct))
		return b.private()
	case isShared:
		lv := *b.lv
		lv.rent += b.tier.len()
		p := newMapBag(b.copyLevel(pending))
		p.size, p.arity, p.lv = b.size, b.arity, &lv
		return p
	}
	return nil
}

// Adopt makes p's levels b's own, in O(1), and clears b's shared mark.
// p must be what b.Prepare returned, with b unchanged since, and is
// spent: it must not be used again. b keeps its indexes and its journal
// — its contents are the same.
func (b *Bag) Adopt(p *Bag) {
	b.tier, b.lv = p.tier, p.lv // p's side becomes b's: p is spent
	b.own()
	p.tier, p.lv = tier{}, nil
}

// Each calls f once per distinct tuple with its multiplicity. Iteration
// order is unspecified. f must not mutate the bag.
func (b *Bag) Each(f func(t schema.Tuple, n int)) {
	b.each(func(_ uint64, e entry) { f(b.tupleAt(e.p), e.count) })
}

// EachApplied calls f with every tuple of σ_keep((b ∸ del) ⊎ add) and its
// multiplicity, without building that bag: b's entries, each count
// reduced by one lookup in del, then add's entries. A tuple of both
// b ∸ del and add is passed twice; its multiplicity is the sum. A nil
// keep keeps every tuple, and a nil del or add is empty. Nothing is
// copied or marked; f must not mutate the three bags.
func (b *Bag) EachApplied(del, add *Bag, keep func(schema.Tuple) bool, f func(t schema.Tuple, n int)) {
	b.eachApplied(del, add, keep, func(_ uint64, t schema.Tuple, n int) { f(t, n) })
}

// eachApplied is EachApplied handing f each tuple's hash as well.
func (b *Bag) eachApplied(del, add *Bag, keep func(schema.Tuple) bool, f func(h uint64, t schema.Tuple, n int)) {
	b.each(func(h uint64, e entry) {
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
	add.each(func(h uint64, e entry) {
		if t := add.tupleAt(e.p); keep == nil || keep(t) {
			f(h, t, e.count)
		}
	})
}

// EachOrdered calls f once per distinct tuple in canonical order, the
// order of Tuple.Compare (a total order whose ties are exactly equal
// tuples), which Tuples and String use too — deterministic iteration for
// ordered sinks such as snapshots, rendered output, and floating-point
// accumulation, at the cost of one slice of the d distinct entries and
// an O(d log d) sort of it. f must not mutate the bag.
func (b *Bag) EachOrdered(f func(t schema.Tuple, n int)) {
	es := make([]entry, 0, b.Distinct())
	b.each(func(_ uint64, e entry) { es = append(es, e) })
	slices.SortFunc(es, func(x, y entry) int { return b.tupleAt(x.p).Compare(b.tupleAt(y.p)) })
	for _, e := range es {
		f(b.tupleAt(e.p), e.count)
	}
}

// Tuples returns every tuple with duplicates expanded, in canonical
// (Tuple.Compare) order; intended for tests and display.
func (b *Bag) Tuples() []schema.Tuple {
	out := make([]schema.Tuple, 0, b.size)
	b.each(func(_ uint64, e entry) {
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
	b.each(func(h uint64, e entry) { eq = eq && o.get(h, b.tupleAt(e.p)).count == e.count })
	return eq
}

// SubBagOf reports b ⊑ o: every tuple's multiplicity in b is ≤ its
// multiplicity in o.
func (b *Bag) SubBagOf(o *Bag) bool {
	if b.size > o.size {
		return false
	}
	sub := true
	b.each(func(h uint64, e entry) { sub = sub && o.get(h, b.tupleAt(e.p)).count >= e.count })
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
