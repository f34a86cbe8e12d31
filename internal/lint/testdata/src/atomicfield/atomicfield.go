// Package atomicfield is a dvmlint fixture for the atomic-discipline
// analyzer: a field accessed via sync/atomic anywhere must be accessed
// atomically everywhere. The counters struct mirrors a hand-rolled
// metrics block (the obs package avoids this whole class by typing its
// counters atomic.Int64, which makes plain access a compile error).
package atomicfield

import "sync/atomic"

// counters mixes one disciplined field (hits) with one that is never
// atomic (coldStart) — only the former's plain accesses are findings.
type counters struct {
	hits      int64
	coldStart int64
}

// Inc is the atomic writer that puts hits under the discipline.
func (c *counters) Inc() {
	atomic.AddInt64(&c.hits, 1)
}

// Read is the matching atomic reader: clean.
func (c *counters) Read() int64 {
	return atomic.LoadInt64(&c.hits)
}

// Peek reads hits without sync/atomic: it can observe a torn value and
// is not ordered against Inc.
func (c *counters) Peek() int64 {
	return c.hits // want: plain read of atomic field
}

// Reset writes hits plainly: the store can be lost under a concurrent
// atomic add.
func (c *counters) Reset() {
	c.hits = 0 // want: plain write of atomic field
}

// Bump increments plainly: a non-atomic read-modify-write.
func (c *counters) Bump() {
	c.hits++ // want: plain increment of atomic field
}

// Leak hands out the field's address to code under no atomic
// discipline at all.
func (c *counters) Leak() *int64 {
	return &c.hits // want: address escape of atomic field
}

// Cold uses coldStart plainly everywhere — no sync/atomic access
// exists, so no discipline applies: clean.
func (c *counters) Cold() int64 {
	c.coldStart++
	return c.coldStart
}

// The last four methods exercise the //dvmlint:ignore syntax.

// Suppressed carries a reasoned suppression: no finding.
func (c *counters) Suppressed() int64 {
	//dvmlint:ignore atomic-discipline a debug dump tolerates a torn read
	return c.hits
}

// BadSuppression has no reason: the suppression itself is reported AND
// does not suppress.
func (c *counters) BadSuppression() int64 {
	//dvmlint:ignore atomic-discipline
	return c.hits // want: plain read of atomic field (suppression invalid)
}

// UnknownCheck names a check that does not exist: a warning.
func (c *counters) UnknownCheck() int64 {
	//dvmlint:ignore no-such-check because I said so
	return atomic.LoadInt64(&c.hits)
}

// Stale carries a suppression that matches no finding: the suppression
// itself is reported as stale.
func (c *counters) Stale() int64 {
	//dvmlint:ignore atomic-discipline the read below is already atomic
	return atomic.LoadInt64(&c.hits) // want: stale suppression
}
