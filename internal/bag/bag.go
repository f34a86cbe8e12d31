// Package bag implements finite bags (multisets) of tuples with the
// operations of the paper's bag algebra BA (Section 2.1): additive union
// ⊎, monus ∸, duplicate elimination ε, selection σ, projection Π, and
// cartesian product ×, plus the derived operations min (minimal
// intersection), max (maximal union), and SQL EXCEPT.
//
// A Bag maps canonical tuple keys to (tuple, multiplicity) entries. All
// operations are pure: they return fresh bags and never mutate operands,
// except the explicitly-mutating Add/AddBag/ApplyDelta/Remove/Clear/Adopt
// used by the storage and maintenance layers.
//
// Clone is copy-on-write: the copy is a handle on the source's map, and
// whichever of the two bags is mutated first copies the map then — or,
// for a view table that readers Clone under a read lock, its single
// writer copies it ahead of the exclusive lock (Unshared, then Adopt
// under the lock), so readers never wait for a copy.
package bag

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"dvm/internal/schema"
)

// entry is one distinct tuple and its multiplicity. The tuple is stored
// as a pointer to its first value (schema.Tuple.Ptr) under the bag's
// arity — 16 bytes, so a map slot with its key is 32, where a tuple's
// slice header would make it 48.
type entry struct {
	p     *schema.Value
	count int
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
	m     map[string]entry
	size  int // total multiplicity
	arity int // the length of every tuple in m
	// peak is the most distinct tuples m has held since it was allocated
	// (a map's buckets only grow, so this is its capacity); last's low 31
	// bits are the distinct count at the previous Clear, and Clear's
	// retention rule reads both. last's top bit is the shared mark: m may
	// be another bag's map too (Clone), so the first mutation copies it.
	// Clone sets the mark on its source under a read lock, concurrently
	// with other readers, so last is atomic. Both counts saturate, and
	// together they fit one word. Bags built by the pure operators write
	// m directly and leave peak behind; Clear takes max(peak, len(m)).
	peak uint32
	last atomic.Uint32
	// dx holds what is derived from the contents — the version counter,
	// the mutation journal and the bag's own indexes. It stays nil until
	// an index is first asked for, so a transient bag pays one word for
	// it.
	dx *derived
}

const (
	shared   = 1 << 31    // last's mark: m may be another bag's map too
	fillMask = shared - 1 // last's previous-Clear fill
)

// sat32 is n as a saturating uint32.
func sat32(n int) uint32 { return uint32(min(uint64(n), math.MaxUint32)) }

// sat31 is n as a saturating 31-bit count: last's fill.
func sat31(n int) uint32 { return uint32(min(uint64(n), fillMask)) }

// copies counts the map copies copy-on-write has made (Copies).
var copies atomic.Uint64

// Copies returns how many times, process-wide, a bag's map has been
// copied because a Clone shared it: by the first mutation of a shared
// bag, or ahead of it by Unshared. Clone itself never copies. Tests
// read the count to prove where, and how often, the copies are paid.
func Copies() uint64 { return copies.Load() }

// isShared reports whether b's map may also be another bag's.
func (b *Bag) isShared() bool { return b.last.Load()&shared != 0 }

// tupleAt returns the tuple at p, which an entry of b's map (or of an
// index or journal over b) stores.
func (b *Bag) tupleAt(p *schema.Value) schema.Tuple { return schema.TupleAt(p, b.arity) }

// setArity makes n the arity of b, which must be empty. A change left in
// the journal window stores a tuple of the old arity, which must not be
// read under the new one, so then the window restarts, as at a Clear. (A
// no-op entry stores no tuple.)
func (b *Bag) setArity(n int) {
	if len(b.m) != 0 {
		panic(fmt.Sprintf("bag: adding a %d-column tuple to a bag of %d-column tuples", n, b.arity))
	}
	b.arity = n
	if b.dx != nil && slices.ContainsFunc(b.dx.jour, func(e jentry) bool { return e.d != 0 }) {
		b.dx.restart(false, 0)
	}
}

// copyMap returns a private copy of b's map, sized for its contents and
// no more: a map's capacity rounds up to a power of two, so headroom for
// the write to come can double the copy, while the write itself grows
// the copy one small table at a time.
func (b *Bag) copyMap() map[string]entry {
	m := make(map[string]entry, len(b.m))
	for k, e := range b.m {
		m[k] = e
	}
	return m
}

// private returns an eager copy of b: a bag whose map is its own from
// the start, for a caller that writes it at once, where a Clone would
// only defer the copy to the first write.
func (b *Bag) private() *Bag { return &Bag{m: b.copyMap(), size: b.size, arity: b.arity} }

// own makes m, a copy of b's map that no other bag holds, b's map, and
// clears the shared mark. It runs only where b may be mutated: never
// concurrently with a Clone of b.
func (b *Bag) own(m map[string]entry) {
	b.m, b.peak = m, sat32(len(m))
	b.last.Store(b.last.Load() &^ shared)
}

// derived is the journal-and-index state of a bag that has been indexed.
type derived struct {
	// ver is bumped on every mutation of the bag (Add/AddBag/ApplyDelta/
	// Remove/Clear) since it was first indexed. An Index records the
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

// jentry records one mutation's effective change: the tuple's canonical
// key, the tuple (as an entry stores it, under the bag's arity; nil for
// a no-op), and the signed multiplicity delta actually applied (after
// clamping at zero).
type jentry struct {
	k string
	p *schema.Value
	d int
}

// New returns an empty bag.
func New() *Bag { return &Bag{m: make(map[string]entry)} }

// NewSized returns an empty bag with room for n distinct tuples, for a
// caller that knows how many are coming (a snapshot's table header): the
// fill then never regrows the map, which from empty costs about as much
// again as the map it ends with.
func NewSized(n int) *Bag {
	return &Bag{m: make(map[string]entry, n), peak: sat32(n)}
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
	return b.addKeyed(t.Key(), t, n)
}

// addKeyed is Add for callers that already hold t's canonical key —
// iterating another bag's map, or composing a join output's key from
// its operands' keys — so hot paths skip re-encoding the tuple.
func (b *Bag) addKeyed(k string, t schema.Tuple, n int) *Bag {
	if n == 0 {
		return b
	}
	if b.isShared() {
		copies.Add(1)
		b.own(b.copyMap())
	}
	e, ok := b.m[k] // e.p is nil when !ok, and stays nil for a no-op
	d := 0          // effective delta after clamping
	switch {
	case !ok:
		if n > 0 {
			if len(t) != b.arity {
				b.setArity(len(t))
			}
			e = entry{p: t.Ptr(), count: n}
			b.m[k] = e
			b.size += n
			d = n
			b.peak = max(b.peak, sat32(len(b.m)))
		}
	case e.count+n <= 0:
		b.size -= e.count
		delete(b.m, k)
		d = -e.count
	default:
		d = n
		b.size += n
		e.count += n
		b.m[k] = e
	}
	if b.dx != nil {
		b.journal(k, e.p, d)
	}
	return b
}

// AddBag folds all of o's contents into b in place.
func (b *Bag) AddBag(o *Bag) *Bag {
	for k, e := range o.m {
		b.addKeyed(k, o.tupleAt(e.p), e.count)
	}
	return b
}

// ApplyDelta sets b := (b ∸ del) ⊎ add in place, in O(|del|+|add|) —
// the shape of every Figure 3 table update (MV from ∇MV/△MV, a log or
// differential table from a change batch). It walks the operands' maps
// by key, so no tuple key is re-encoded, and journals each change like
// Add, so indexes cached over b keep syncing. del and add are only
// read; neither may be b itself.
func (b *Bag) ApplyDelta(del, add *Bag) *Bag {
	for k, e := range del.m {
		b.addKeyed(k, del.tupleAt(e.p), -e.count)
	}
	return b.AddBag(add)
}

// Remove removes up to n copies of t.
func (b *Bag) Remove(t schema.Tuple, n int) *Bag { return b.Add(t, -n) }

// clearFloor is the capacity below which Clear does not bother to
// reallocate: one bucket group's worth, a few hundred bytes at most.
const clearFloor = 8

// Clear empties the bag in place: whoever holds the bag sees it emptied,
// and the bag's own indexes (IndexOn) stay registered, empty. A bag that
// is filled and cleared in rounds — a log, a differential table — keeps
// its map's buckets, so the next round refills into storage the bag
// already owns. Retention is bounded by a rule, not a setting: the
// buckets are kept only while the map's capacity is within 4x of BOTH
// the fill being cleared and the one cleared before it; otherwise the
// map is reallocated, pre-sized to the smaller of the two. So a one-off
// bulk load is released at its own Clear (and a bag never cleared
// before starts over with a fresh map), no bag pins more than 4x its
// smaller recent fill, and Clear costs O(the content it removes), never
// O(the most the bag ever held). (A Clear that finds the bag empty is no
// fill: it is judged by the last one alone and leaves the record as it
// is, so a log that sits out a round keeps what it had.) A map the bag
// shares with a Clone is never cleared — the clones keep their contents
// — so a shared bag starts over with a fresh map, sized by the same rule.
func (b *Bag) Clear() {
	n := len(b.m)
	fill := b.last.Load() & fillMask
	keep := int(fill) // the fill both rounds justify
	if n > 0 {
		keep = min(n, keep)
		fill = sat31(n)
	}
	shrink := max(int(b.peak), n) > max(4*keep, clearFloor)
	if shrink || b.isShared() {
		b.m = make(map[string]entry, keep)
		b.peak = sat32(keep)
	} else {
		clear(b.m)
	}
	b.last.Store(fill)
	b.size = 0
	if b.dx != nil {
		b.dx.restart(shrink, keep)
	}
}

// restart drops the journal window of a bag that is now empty, so
// free-standing indexes behind it rebuild (cheap — the bag is empty),
// and empties the bag's own indexes in place, or, when shrink says so,
// into fresh maps with room for keep entries: a clear is not
// representable as journal entries.
func (x *derived) restart(shrink bool, keep int) {
	x.ver++
	clear(x.jour)
	x.jour = x.jour[:0]
	for _, ix := range x.owned {
		if shrink {
			ix.m = make(map[string][]indexEntry)
			ix.at = make(map[string]int, keep)
		} else {
			clear(ix.m)
			clear(ix.at)
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
func (b *Bag) journal(k string, p *schema.Value, d int) {
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
	x.jour = append(x.jour, jentry{k: k, p: p, d: d})
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

// Count returns the multiplicity of t.
func (b *Bag) Count(t schema.Tuple) int { return b.m[t.Key()].count }

// Contains reports whether t occurs at least once.
func (b *Bag) Contains(t schema.Tuple) bool { return b.Count(t) > 0 }

// Len returns the total multiplicity (|b| with duplicates).
func (b *Bag) Len() int { return b.size }

// Distinct returns the number of distinct tuples.
func (b *Bag) Distinct() int { return len(b.m) }

// Empty reports whether the bag has no tuples.
func (b *Bag) Empty() bool { return b.size == 0 }

// Clone returns a copy of b that costs one small allocation, however
// large b is: a copy-on-write handle. The two bags share b's map, both
// marked shared, until one of them is mutated; that one copies the map
// first, and Clear on a shared bag starts a fresh map instead of
// emptying the shared one. So either bag may be mutated or cleared
// without the other noticing, as with a deep copy (tuples are immutable
// and always shared). Clone only reads b — it sets b's mark atomically —
// so readers may Clone a table concurrently under a read lock. The
// clone has no indexes (IndexOn) of its own yet.
func (b *Bag) Clone() *Bag {
	for {
		l := b.last.Load()
		if l&shared != 0 || b.last.CompareAndSwap(l, l|shared) {
			break
		}
	}
	c := &Bag{m: b.m, size: b.size, arity: b.arity}
	c.last.Store(shared)
	return c
}

// Unshared is the half of a write to a shared bag that its single writer
// pays outside the lock its readers take: when b shares its map with a
// Clone, it returns a private copy of b; otherwise nil. It only reads b,
// so readers may go on Cloning b meanwhile. Under the exclusive lock the
// writer then installs the copy with Adopt in O(1), and the copy a
// mutation of b would owe is never paid while readers wait.
func (b *Bag) Unshared() *Bag {
	if !b.isShared() {
		return nil
	}
	copies.Add(1)
	return b.private()
}

// Adopt makes p's map b's own, in O(1), and clears b's shared mark. p
// must be what b.Unshared returned, with b unchanged since, and is spent:
// it must not be used again. b keeps its indexes and its journal — its
// contents are the same.
func (b *Bag) Adopt(p *Bag) {
	b.own(p.m)
	p.m = nil
}

// Each calls f once per distinct tuple with its multiplicity. Iteration
// order is unspecified. f must not mutate the bag.
func (b *Bag) Each(f func(t schema.Tuple, n int)) {
	for _, e := range b.m {
		f(b.tupleAt(e.p), e.count)
	}
}

// EachApplied calls f with every tuple of σ_keep((b ∸ del) ⊎ add) and its
// multiplicity, without building that bag: b's entries, each count
// reduced by one lookup in del, then add's entries. A tuple of both
// b ∸ del and add is passed twice; its multiplicity is the sum. A nil
// keep keeps every tuple, and a nil del or add is empty. Nothing is
// copied or marked; f must not mutate the three bags.
func (b *Bag) EachApplied(del, add *Bag, keep func(schema.Tuple) bool, f func(t schema.Tuple, n int)) {
	b.eachApplied(del, add, keep, func(_ string, t schema.Tuple, n int) { f(t, n) })
}

// eachApplied is EachApplied handing f each tuple's key as well.
func (b *Bag) eachApplied(del, add *Bag, keep func(schema.Tuple) bool, f func(k string, t schema.Tuple, n int)) {
	var dm map[string]entry
	if del != nil {
		dm = del.m
	}
	for k, e := range b.m {
		t := b.tupleAt(e.p)
		if keep != nil && !keep(t) {
			continue
		}
		if n := e.count - dm[k].count; n > 0 {
			f(k, t, n)
		}
	}
	if add == nil {
		return
	}
	for k, e := range add.m {
		if t := add.tupleAt(e.p); keep == nil || keep(t) {
			f(k, t, e.count)
		}
	}
}

// EachOrdered calls f once per distinct tuple in canonical (sorted key)
// order — deterministic iteration for ordered sinks such as snapshots,
// rendered output, and floating-point accumulation, at the cost of an
// O(d log d) sort over the d distinct tuples. f must not mutate the bag.
func (b *Bag) EachOrdered(f func(t schema.Tuple, n int)) {
	keys := make([]string, 0, len(b.m))
	for k := range b.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		e := b.m[k]
		f(b.tupleAt(e.p), e.count)
	}
}

// Tuples returns every tuple with duplicates expanded, in canonical
// (sorted) order; intended for tests and display.
func (b *Bag) Tuples() []schema.Tuple {
	out := make([]schema.Tuple, 0, b.size)
	for _, e := range b.m {
		for i := 0; i < e.count; i++ {
			out = append(out, b.tupleAt(e.p))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// Equal reports whether two bags contain the same tuples with the same
// multiplicities.
func (b *Bag) Equal(o *Bag) bool {
	if b.size != o.size || len(b.m) != len(o.m) {
		return false
	}
	for k, e := range b.m {
		if o.m[k].count != e.count {
			return false
		}
	}
	return true
}

// SubBagOf reports b ⊑ o: every tuple's multiplicity in b is ≤ its
// multiplicity in o.
func (b *Bag) SubBagOf(o *Bag) bool {
	if b.size > o.size {
		return false
	}
	for k, e := range b.m {
		if o.m[k].count < e.count {
			return false
		}
	}
	return true
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
