package txn

import (
	"sort"
	"strings"
	"sync"
	"time"

	"dvm/internal/obs"
	"dvm/internal/obs/trace"
)

// LockStats summarizes a table's lock histograms — exclusive holds,
// the paper's "view downtime" (Section 1.1): while a view table is
// write-locked, readers are blocked — read from lock_write_hold_ns and
// lock_read_wait_ns, so it is the registry's figure under another name.
type LockStats struct {
	WriteHolds    int           // number of exclusive sections
	WriteHoldTime time.Duration // total exclusive hold time
	MaxWriteHold  time.Duration // longest single exclusive hold
	ReadWaits     int           // reader acquisitions
	ReadWaitTime  time.Duration // total time readers spent blocked
	MaxReadWait   time.Duration // longest single reader stall
}

// LockManager provides per-table reader/writer locks with deterministic
// (sorted) acquisition order, and records every exclusive hold into
// lock_write_hold_ns{table} and every shared acquisition's blocked time
// into lock_read_wait_ns{table} of its registry — the reader-observed
// view downtime of Section 1.1.
type LockManager struct {
	mu    sync.Mutex
	locks map[string]*tableLock
	reg   *obs.Registry
}

// tableLock is one table's lock with its histograms, cached so the hot
// path never takes the registry lock.
type tableLock struct {
	sync.RWMutex
	writeHold, readWait *obs.Histogram
}

// NewLockManager returns an empty lock manager recording into r. A
// table's histograms are created at its first lock.
func NewLockManager(r *obs.Registry) *LockManager {
	return &LockManager{locks: make(map[string]*tableLock), reg: r}
}

func (lm *LockManager) lockFor(table string) *tableLock {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	l, ok := lm.locks[table]
	if !ok {
		l = &tableLock{
			writeHold: lm.reg.Histogram("lock_write_hold_ns", table),
			readWait:  lm.reg.Histogram("lock_read_wait_ns", table),
		}
		lm.locks[table] = l
	}
	return l
}

func sortedUnique(tables []string) []string {
	out := append([]string(nil), tables...)
	sort.Strings(out)
	j := 0
	for i, t := range out {
		if i == 0 || t != out[i-1] {
			out[j] = t
			j++
		}
	}
	return out[:j]
}

// lockSet returns tables in acquisition order — sorted, without
// duplicates — and their locks. A one-table section copies and sorts
// nothing, and its lock goes in one.
func (lm *LockManager) lockSet(tables []string, one *[1]*tableLock) ([]string, []*tableLock) {
	ts, ls := tables, one[:0]
	if len(tables) > 1 {
		ts = sortedUnique(tables)
		ls = make([]*tableLock, 0, len(ts))
	}
	for _, t := range ts {
		ls = append(ls, lm.lockFor(t))
	}
	return ts, ls
}

// spanAttrs is a lock section's span attributes, built only when it is
// traced (parent != nil).
func spanAttrs(parent *trace.Span, mode string, ts []string) []trace.Attr {
	if parent == nil {
		return nil
	}
	return []trace.Attr{trace.Str("mode", mode), trace.Str("tables", strings.Join(ts, ","))}
}

// Held is the proof that its holder runs inside a WithWriteSpan
// section: only the LockManager makes one, and a function that must run
// under a write lock takes one as a parameter, so calling it outside a
// section does not compile. Go cannot stop another package from
// writing Held{}; none may.
type Held struct{ span *trace.Span }

// Span is the section's txn.lock.hold span (nil untraced), the parent
// of the critical section's own work.
func (h Held) Span() *trace.Span { return h.span }

// WithWrite runs f holding exclusive locks on the given tables, in
// sorted order to avoid deadlock, recording hold time against each.
func (lm *LockManager) WithWrite(tables []string, f func() error) error {
	return lm.WithWriteSpan(tables, nil, func(Held) error { return f() })
}

// WithWriteSpan is WithWrite with tracing: under a non-nil parent span
// it emits a txn.lock.wait child covering acquisition and a
// txn.lock.hold child covering f (its duration is the same clock
// reading recorded into lock_write_hold_ns). f receives the section's
// Held, which carries the hold span.
func (lm *LockManager) WithWriteSpan(tables []string, parent *trace.Span, f func(Held) error) error {
	var one [1]*tableLock
	ts, ls := lm.lockSet(tables, &one)
	attrs := spanAttrs(parent, "write", ts)
	wait := parent.StartChild(trace.SpanLockWait, attrs...)
	for _, l := range ls {
		l.Lock()
	}
	wait.End()
	hold := parent.StartChild(trace.SpanLockHold, attrs...)
	start := time.Now()
	err := f(Held{hold})
	elapsed := time.Since(start)
	hold.EndExplicit(elapsed)
	for _, l := range ls {
		l.writeHold.Observe(int64(elapsed))
	}
	for i := len(ls) - 1; i >= 0; i-- {
		ls[i].Unlock()
	}
	return err
}

// WithRead runs f holding shared locks on the given tables, recording
// how long acquisition blocked (time spent waiting behind refreshes).
func (lm *LockManager) WithRead(tables []string, f func() error) error {
	return lm.WithReadSpan(tables, nil, func(*trace.Span) error { return f() })
}

// WithReadSpan is WithRead with tracing: under a non-nil parent span
// it emits a txn.lock.wait child covering the (possibly blocking)
// shared acquisitions and a txn.lock.hold child covering f. The wait
// span's duration is the reader-observed view downtime of this
// acquisition.
func (lm *LockManager) WithReadSpan(tables []string, parent *trace.Span, f func(*trace.Span) error) error {
	var one [1]*tableLock
	ts, ls := lm.lockSet(tables, &one)
	attrs := spanAttrs(parent, "read", ts)
	wait := parent.StartChild(trace.SpanLockWait, attrs...)
	var totalWait time.Duration
	for _, l := range ls {
		start := time.Now()
		l.RLock()
		waited := time.Since(start)
		totalWait += waited
		l.readWait.Observe(int64(waited))
	}
	wait.EndExplicit(totalWait)
	hold := parent.StartChild(trace.SpanLockHold, attrs...)
	err := f(hold)
	hold.End()
	for i := len(ls) - 1; i >= 0; i-- {
		ls[i].RUnlock()
	}
	return err
}

// Stats returns the table's lock histograms' counts, sums and maxima;
// zero for a table never locked.
func (lm *LockManager) Stats(table string) LockStats {
	lm.mu.Lock()
	l, ok := lm.locks[table]
	lm.mu.Unlock()
	if !ok {
		return LockStats{}
	}
	return LockStats{
		WriteHolds:    int(l.writeHold.Count()),
		WriteHoldTime: time.Duration(l.writeHold.Sum()),
		MaxWriteHold:  time.Duration(l.writeHold.Max()),
		ReadWaits:     int(l.readWait.Count()),
		ReadWaitTime:  time.Duration(l.readWait.Sum()),
		MaxReadWait:   time.Duration(l.readWait.Max()),
	}
}
