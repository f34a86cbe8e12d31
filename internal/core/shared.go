package core

import (
	"fmt"

	"dvm/internal/bag"
	"dvm/internal/sharedlog"
	"dvm/internal/txn"
)

// sharedState holds the manager's shared-log machinery (the Section 7
// extension): one append-only log per base table, a cursor per
// (view, table), and reference counts for truncation.
type sharedState struct {
	logs    map[string]*sharedlog.Log
	cursors map[string]map[string]int64 // view -> table -> next-unseen LSN
	refs    map[string]int              // table -> #views logging it
	// loaded remembers, per (view, table), the [cursor, head) window the
	// view's private log tables currently hold, so materializeWindow is
	// free when asked for the same window again (a fresh read or an
	// invariant check between two writes).
	loaded map[string]map[string][2]int64
}

// ManagerOption configures a Manager at construction.
type ManagerOption func(*Manager)

// WithSharedLogs switches the manager to shared base-table logs: every
// transaction appends its change batch ONCE per table, in O(|change|),
// independent of the number of registered views — the property the
// paper's Section 7 asks for. Views materialize their private log
// window from the shared log on demand (propagate, refresh, invariant
// checks); entries all views have consumed are truncated.
func WithSharedLogs() ManagerOption {
	return func(m *Manager) {
		m.shared = &sharedState{
			logs:    make(map[string]*sharedlog.Log),
			cursors: make(map[string]map[string]int64),
			refs:    make(map[string]int),
			loaded:  make(map[string]map[string][2]int64),
		}
	}
}

// SharedLogsEnabled reports whether the manager uses shared logs.
func (m *Manager) SharedLogsEnabled() bool { return m.shared != nil }

// SharedLogVolume returns the retained tuple volume of a base table's
// shared log (0 when absent) — what truncation keeps bounded.
func (m *Manager) SharedLogVolume(table string) int {
	if m.shared == nil {
		return 0
	}
	if l, ok := m.shared.logs[table]; ok {
		return l.TupleVolume()
	}
	return 0
}

// pendingShared returns the tuple volume of the view's unconsumed
// shared-log window across its bases — the staleness debt the
// log_size_tuples gauge reports in shared-log mode.
func (m *Manager) pendingShared(v *View) int {
	cur, ok := m.shared.cursors[v.Name]
	if !ok {
		return 0
	}
	n := 0
	for _, b := range v.bases {
		if l, ok := m.shared.logs[b]; ok {
			n += l.VolumeSince(cur[b])
		}
	}
	return n
}

// registerSharedView hooks a newly defined view with logs into the
// shared logs: each base gets a log (created at first use) and the
// view's cursor starts at the current head (the view is consistent as
// of now).
func (m *Manager) registerSharedView(v *View) {
	cur := map[string]int64{}
	for _, b := range v.bases {
		l, ok := m.shared.logs[b]
		if !ok {
			l = sharedlog.New(b, v.logs[b].del.Schema())
			m.shared.logs[b] = l
		}
		m.shared.refs[b]++
		cur[b] = l.Head()
	}
	m.shared.cursors[v.Name] = cur
	m.shared.loaded[v.Name] = map[string][2]int64{}
}

// unregisterSharedView removes a dropped view's cursors and reference
// counts, then truncates whatever became unreachable.
func (m *Manager) unregisterSharedView(v *View) {
	if m.shared == nil {
		return
	}
	if _, ok := m.shared.cursors[v.Name]; !ok {
		return
	}
	delete(m.shared.cursors, v.Name)
	delete(m.shared.loaded, v.Name)
	for _, b := range v.bases {
		m.shared.refs[b]--
		if m.shared.refs[b] <= 0 {
			delete(m.shared.refs, b)
			delete(m.shared.logs, b)
			continue
		}
		m.truncateShared(b)
	}
}

// appendShared records the transaction's change batches into the shared
// logs — once per logged table, regardless of how many views exist.
func (m *Manager) appendShared(nt txn.Txn) {
	for name, u := range nt {
		l, ok := m.shared.logs[name]
		if !ok {
			continue // no deferred view logs this table
		}
		del := u.Delete
		if del != nil {
			del = del.Clone()
		}
		ins := u.Insert
		if ins != nil {
			ins = ins.Clone()
		}
		if (del == nil || del.Empty()) && (ins == nil || ins.Empty()) {
			continue
		}
		l.Append(del, ins)
	}
}

// materializeWindow fills the view's private log tables with the merged
// shared-log window [cursor, head) for each base — its relevant part,
// through the view's filters, as appendToLogs logs it — WITHOUT
// advancing the cursor. After this, every Figure 3 algorithm (and the invariant
// checker) sees exactly the per-view log state it expects.
func (m *Manager) materializeWindow(v *View) error {
	cur, ok := m.shared.cursors[v.Name]
	if !ok {
		return fmt.Errorf("core: view %q has no shared-log cursors", v.Name)
	}
	loaded := m.shared.loaded[v.Name]
	for _, b := range v.bases {
		l := m.shared.logs[b]
		w := [2]int64{cur[b], l.Head()}
		if have, ok := loaded[b]; ok && have == w {
			continue
		}
		del, ins, err := l.Merge(w[0], w[1])
		if err != nil {
			return err
		}
		if keep, ok := v.filters[b]; ok {
			del, ins = bag.Select(del, keep), bag.Select(ins, keep)
		}
		v.logs[b].del.Replace(del)
		v.logs[b].add.Replace(ins)
		loaded[b] = w
	}
	return nil
}

// advanceCursors moves the view's cursors to the shared-log heads (after
// a successful propagate/refresh consumed the window) and truncates.
func (m *Manager) advanceCursors(v *View) {
	cur := m.shared.cursors[v.Name]
	// The consumer emptied the private log tables; they hold no window.
	clear(m.shared.loaded[v.Name])
	for _, b := range v.bases {
		cur[b] = m.shared.logs[b].Head()
		m.truncateShared(b)
	}
}

// truncateShared drops shared-log entries every logging view has
// consumed.
func (m *Manager) truncateShared(table string) {
	l, ok := m.shared.logs[table]
	if !ok {
		return
	}
	min := l.Head()
	for _, cur := range m.shared.cursors {
		if lsn, ok := cur[table]; ok && lsn < min {
			min = lsn
		}
	}
	l.TruncateTo(min)
}
