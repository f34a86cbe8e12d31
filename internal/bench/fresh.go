package bench

import (
	"fmt"
	"time"

	"dvm/internal/algebra"
	"dvm/internal/core"
)

// E14FreshQueries measures the Section 7 "refresh only what a query
// needs" extension: with a large pending log, an analyst who needs a
// fresh answer can (a) read the stale view (fast, wrong), (b) force a
// full refresh and then read (fresh, downtime for everyone), or
// (c) QueryFresh — fold the pending log into the differential tables
// (propagate_C's body, no MV lock) and return the asked-for slice of MV
// with the same slice of the differential applied (fresh, no downtime,
// one pass over MV plus work proportional to the differential).
//
// A fresh read keeps its fold, so a second one — or the refresh after
// it — over the same backlog is nearly free. Each path is therefore
// timed over its own backlog of the same size, rebuilt (untimed) after
// a refresh.
func E14FreshQueries() (*Report, error) {
	const pending = 2000
	rep := &Report{
		ID:     "E14",
		Title:  fmt.Sprintf("Fresh reads over a stale view (%d pending updates, Combined scenario)", pending),
		Notes:  "QueryFresh answers as-of-now without refreshing: fold the log, then a filtered MV read with the filtered differential applied; each path is timed over its own backlog",
		Header: []string{"access path", "latency µs", "fresh?", "view downtime?"},
	}

	m, w, err := setupViews(1, core.Combined, 77)
	if err != nil {
		return nil, err
	}
	// backlog brings the view up to date and leaves `pending` unpropagated
	// updates behind it.
	backlog := func() error {
		if err := m.Refresh("v0"); err != nil {
			return err
		}
		return m.Execute(w.SalesBatch(pending))
	}
	if err := backlog(); err != nil {
		return nil, err
	}

	// (a) stale read.
	start := time.Now()
	if _, err := m.Query("v0"); err != nil {
		return nil, err
	}
	stale := time.Since(start)

	// (c1) fresh read of the whole view.
	start = time.Now()
	if _, err := m.QueryFresh("v0", nil); err != nil {
		return nil, err
	}
	freshAll := time.Since(start)

	// (c2) fresh read of one customer's slice.
	if err := backlog(); err != nil {
		return nil, err
	}
	start = time.Now()
	if _, err := m.QueryFresh("v0", algebra.Eq(algebra.A("custId"), algebra.C(1))); err != nil {
		return nil, err
	}
	freshSlice := time.Since(start)

	// (b) full refresh + read (downtime for every other reader).
	if err := backlog(); err != nil {
		return nil, err
	}
	start = time.Now()
	if err := m.Refresh("v0"); err != nil {
		return nil, err
	}
	if _, err := m.Query("v0"); err != nil {
		return nil, err
	}
	refreshRead := time.Since(start)
	if err := m.CheckConsistent("v0"); err != nil {
		return nil, err
	}

	rep.Rows = append(rep.Rows,
		[]string{"stale Query", fmt.Sprint(stale.Microseconds()), "no", "no"},
		[]string{"QueryFresh (whole view)", fmt.Sprint(freshAll.Microseconds()), "yes", "no"},
		[]string{"QueryFresh (one-customer slice)", fmt.Sprint(freshSlice.Microseconds()), "yes", "no"},
		[]string{"Refresh + Query", fmt.Sprint(refreshRead.Microseconds()), "yes", "YES"},
	)
	return rep, nil
}
