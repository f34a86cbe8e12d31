package txn

import (
	"sort"
	"strings"
	"sync"
	"time"

	"dvm/internal/obs"
	"dvm/internal/obs/trace"
)

// LockStats accumulates exclusive-lock hold times for a table — the
// paper's "view downtime" (Section 1.1): while a view table is
// write-locked, readers are blocked.
type LockStats struct {
	WriteHolds    int           // number of exclusive sections
	WriteHoldTime time.Duration // total exclusive hold time
	MaxWriteHold  time.Duration // longest single exclusive hold
	ReadWaits     int           // reader acquisitions
	ReadWaitTime  time.Duration // total time readers spent blocked
	MaxReadWait   time.Duration // longest single reader stall
}

// LockManager provides per-table reader/writer locks with deterministic
// (sorted) acquisition order, and records write-hold durations so the
// benchmark harness can report downtime. With SetRegistry it
// additionally feeds per-table lock_write_hold_ns / lock_read_wait_ns
// histograms in an obs.Registry.
type LockManager struct {
	mu    sync.Mutex
	locks map[string]*sync.RWMutex
	stats map[string]*LockStats
	hists map[string]*lockHists
	clock func() time.Time
	reg   *obs.Registry
}

// lockHists caches one table's obs histograms so the hot path never
// takes the registry lock.
type lockHists struct {
	writeHold *obs.Histogram
	readWait  *obs.Histogram
}

// NewLockManager returns an empty lock manager.
func NewLockManager() *LockManager {
	return &LockManager{
		locks: make(map[string]*sync.RWMutex),
		stats: make(map[string]*LockStats),
		hists: make(map[string]*lockHists),
		clock: time.Now,
	}
}

// SetRegistry attaches an obs registry: from now on every exclusive
// hold records into lock_write_hold_ns{table} and every shared
// acquisition records its blocked time into lock_read_wait_ns{table} —
// the reader-observed view downtime of Section 1.1. Call before
// concurrent use.
func (lm *LockManager) SetRegistry(r *obs.Registry) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	lm.reg = r
	for table := range lm.locks {
		lm.hists[table] = &lockHists{
			writeHold: r.Histogram("lock_write_hold_ns", table),
			readWait:  r.Histogram("lock_read_wait_ns", table),
		}
	}
}

func (lm *LockManager) lockFor(table string) (*sync.RWMutex, *LockStats, *lockHists) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	l, ok := lm.locks[table]
	if !ok {
		l = &sync.RWMutex{}
		lm.locks[table] = l
		lm.stats[table] = &LockStats{}
		if lm.reg != nil {
			lm.hists[table] = &lockHists{
				writeHold: lm.reg.Histogram("lock_write_hold_ns", table),
				readWait:  lm.reg.Histogram("lock_read_wait_ns", table),
			}
		}
	}
	return l, lm.stats[table], lm.hists[table]
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

// WithWrite runs f holding exclusive locks on the given tables, in
// sorted order to avoid deadlock, recording hold time against each.
func (lm *LockManager) WithWrite(tables []string, f func() error) error {
	return lm.WithWriteSpan(tables, nil, func(*trace.Span) error { return f() })
}

// WithWriteSpan is WithWrite with tracing: under a non-nil parent span
// it emits a txn.lock.wait child covering acquisition and a
// txn.lock.hold child covering f (its duration is the same clock
// reading recorded into lock_write_hold_ns). f receives the hold span
// so the critical section can parent its own work under it.
func (lm *LockManager) WithWriteSpan(tables []string, parent *trace.Span, f func(*trace.Span) error) error {
	ts := sortedUnique(tables)
	type held struct {
		l *sync.RWMutex
		s *LockStats
		h *lockHists
	}
	attrs := []trace.Attr{trace.Str("mode", "write"), trace.Str("tables", strings.Join(ts, ","))}
	wait := parent.StartChild(trace.SpanLockWait, attrs...)
	hs := make([]held, len(ts))
	for i, t := range ts {
		l, s, h := lm.lockFor(t)
		l.Lock()
		hs[i] = held{l: l, s: s, h: h}
	}
	wait.End()
	hold := parent.StartChild(trace.SpanLockHold, attrs...)
	start := lm.clock()
	err := f(hold)
	elapsed := lm.clock().Sub(start)
	hold.EndExplicit(elapsed)
	lm.mu.Lock()
	for _, h := range hs {
		h.s.WriteHolds++
		h.s.WriteHoldTime += elapsed
		if elapsed > h.s.MaxWriteHold {
			h.s.MaxWriteHold = elapsed
		}
	}
	lm.mu.Unlock()
	for _, h := range hs {
		if h.h != nil {
			h.h.writeHold.Observe(int64(elapsed))
		}
	}
	for i := len(hs) - 1; i >= 0; i-- {
		hs[i].l.Unlock()
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
	ts := sortedUnique(tables)
	locks := make([]*sync.RWMutex, len(ts))
	stats := make([]*LockStats, len(ts))
	hists := make([]*lockHists, len(ts))
	for i, t := range ts {
		locks[i], stats[i], hists[i] = lm.lockFor(t)
	}
	attrs := []trace.Attr{trace.Str("mode", "read"), trace.Str("tables", strings.Join(ts, ","))}
	wait := parent.StartChild(trace.SpanLockWait, attrs...)
	var totalWait time.Duration
	for i, l := range locks {
		start := lm.clock()
		l.RLock()
		waited := lm.clock().Sub(start)
		totalWait += waited
		lm.mu.Lock()
		stats[i].ReadWaits++
		stats[i].ReadWaitTime += waited
		if waited > stats[i].MaxReadWait {
			stats[i].MaxReadWait = waited
		}
		lm.mu.Unlock()
		if hists[i] != nil {
			hists[i].readWait.Observe(int64(waited))
		}
	}
	wait.EndExplicit(totalWait)
	hold := parent.StartChild(trace.SpanLockHold, attrs...)
	err := f(hold)
	hold.End()
	for i := len(locks) - 1; i >= 0; i-- {
		locks[i].RUnlock()
	}
	return err
}

// Stats returns a copy of the accumulated stats for a table.
func (lm *LockManager) Stats(table string) LockStats {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	if s, ok := lm.stats[table]; ok {
		return *s
	}
	return LockStats{}
}
