// Package sharedlog answers the paper's Section 7 open problem: "How
// should log information be stored so that the work done by
// makesafe_BL[T] is minimal, and independent of the number of views
// supported?"
//
// Instead of one (▼R, ▲R) table pair per view — which makes every
// transaction pay one log merge per view — each base table gets a single
// append-only log of change batches, indexed by LSN. makesafe appends
// each transaction's (∇R, △R) exactly once, in O(|change|), no matter
// how many views exist. Every view keeps a cursor; at propagate/refresh
// time the view merges its window [cursor, head) into the weakly minimal
// (▼R, ▲R) pair the Figure 3 algorithms expect, using the same
// composition as makesafe_BL (Lemma 3), so all downstream algebra is
// unchanged. Entries below the minimum cursor are truncated.
//
// The engine does not use it: core keeps per-view logs, which beat a
// shared log on time and bytes (DESIGN.md §5 item 45). Its one importer
// is the perf benchmark's sharedlog.* probes; the package goes when
// they do.
package sharedlog

import (
	"fmt"

	"dvm/internal/bag"
	"dvm/internal/schema"
)

// Entry is one transaction's change batch for a table: the tuples it
// deleted and inserted, already normalized to weak minimality against
// the table state it applied to.
type Entry struct {
	Del *bag.Bag
	Ins *bag.Bag
}

// Log is the append-only change log of one base table. LSNs start at 0
// and never repeat; Tail ≤ lsn < Head addresses retained entries.
type Log struct {
	table   string
	sch     *schema.Schema
	head    int64 // next LSN to assign
	tail    int64 // first retained LSN
	entries []Entry
}

// New creates an empty log for a table.
func New(table string, sch *schema.Schema) *Log {
	return &Log{table: table, sch: sch}
}

// Table returns the table name the log records.
func (l *Log) Table() string { return l.table }

// Schema returns the logged table's schema.
func (l *Log) Schema() *schema.Schema { return l.sch }

// Head returns the next LSN to be assigned (one past the newest entry).
func (l *Log) Head() int64 { return l.head }

// Tail returns the oldest retained LSN.
func (l *Log) Tail() int64 { return l.tail }

// Len returns the number of retained entries.
func (l *Log) Len() int { return len(l.entries) }

// TupleVolume returns the total tuple count across retained entries —
// the storage footprint the truncation policy manages.
func (l *Log) TupleVolume() int {
	n := 0
	for _, e := range l.entries {
		n += e.Del.Len() + e.Ins.Len()
	}
	return n
}

// VolumeSince returns the tuple volume of retained entries with
// LSN >= from (clamped to the retained window) — one view's pending
// backlog when from is that view's cursor.
func (l *Log) VolumeSince(from int64) int {
	if from < l.tail {
		from = l.tail
	}
	n := 0
	for i := from - l.tail; i >= 0 && i < int64(len(l.entries)); i++ {
		e := l.entries[i]
		n += e.Del.Len() + e.Ins.Len()
	}
	return n
}

// Append records one transaction's change batch and returns its LSN.
// The log takes ownership of the bags.
func (l *Log) Append(del, ins *bag.Bag) int64 {
	if del == nil {
		del = bag.New()
	}
	if ins == nil {
		ins = bag.New()
	}
	lsn := l.head
	l.entries = append(l.entries, Entry{Del: del, Ins: ins})
	l.head++
	return lsn
}

// Merge folds the window [from, to) into a single weakly minimal
// (▼R, ▲R) pair using the makesafe_BL composition of Figure 3:
//
//	▼ := ▼ ⊎ (∇ ∸ ▲)
//	▲ := (▲ ∸ ∇) ⊎ △
//
// applied entry by entry in LSN order — exactly the value the per-view
// log tables would hold had every entry been merged at transaction time
// (Lemma 3 gives associativity of this composition).
func (l *Log) Merge(from, to int64) (del, ins *bag.Bag, err error) {
	if from < l.tail || to > l.head || from > to {
		return nil, nil, fmt.Errorf("sharedlog: window [%d,%d) outside retained [%d,%d) for %s",
			from, to, l.tail, l.head, l.table)
	}
	del, ins = bag.New(), bag.New()
	for lsn := from; lsn < to; lsn++ {
		e := l.entries[lsn-l.tail]
		x := bag.Monus(e.Del, ins) // ∇ ∸ ▲
		e.Del.Each(func(t schema.Tuple, n int) {
			ins.Remove(t, n) // ▲ ∸= ∇
		})
		ins.AddBag(e.Ins) // ⊎ △
		del.AddBag(x)     // ▼ ⊎= x
	}
	return del, ins, nil
}

// TruncateTo discards entries with LSN < lsn. Truncating past Head or
// before Tail is clipped to the valid range.
func (l *Log) TruncateTo(lsn int64) {
	if lsn > l.head {
		lsn = l.head
	}
	if lsn <= l.tail {
		return
	}
	drop := lsn - l.tail
	// Copy the remainder so the backing array of dropped entries can be
	// collected.
	rest := make([]Entry, len(l.entries)-int(drop))
	copy(rest, l.entries[drop:])
	l.entries = rest
	l.tail = lsn
}
