// Package obs is the engine's observability layer: dependency-light
// metrics (atomic counters, gauges, and lock-free histograms with fixed
// log-scale buckets) plus the attribution regions (labels.go) the
// maintenance phases of Figure 3 run in.
//
// The paper's central trade-off — minimize view downtime while bounding
// per-transaction overhead (Policies 1 and 2, Example 5.4) — is only a
// trade-off if both quantities are measurable at runtime. Every
// maintenance entry point in internal/core, and every SQL statement,
// records its duration and tuple volume here; internal/txn records
// lock wait and hold time (the reader-observed "view downtime" of
// Section 1.1); internal/storage records snapshot bytes.
//
// A Registry is the unit of collection: one per core.Manager. It is
// safe for concurrent use — all hot-path mutation is a single atomic
// add — and is read by taking a Snapshot, which the dvmsh \stats
// command, the cmd/dvmstatsd HTTP endpoint, and the benchmark harness
// all render from. docs/observability.md documents every metric family,
// its unit, and the paper quantity it measures; a test enforces that
// the documentation and the registry agree 1:1.
package obs

import "sync/atomic"

// Counter is a monotonically increasing atomic counter (e.g. tuples
// appended to a view's log).
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an instantaneous atomic value (e.g. the current log size in
// tuples). Unlike a Counter it may go down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }
