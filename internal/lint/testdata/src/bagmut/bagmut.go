// Package bagmut is a dvmlint fixture for the bag-mutation analyzer.
package bagmut

import (
	"dvm/internal/bag"
	"dvm/internal/schema"
)

// Leak mutates a bag parameter without an in-place marker.
func Leak(b *bag.Bag, t schema.Tuple) {
	b.Add(t, 1) // want: mutation of parameter
}

// Drain clears a bag parameter without a marker.
func Drain(b *bag.Bag) {
	b.Clear() // want: mutation of parameter
}

// Patch applies a differential to a bag parameter without a marker.
func Patch(b, d, a *bag.Bag) {
	b.ApplyDelta(d, a) // want: mutation of parameter
}

// ApplyDelta carries the Apply marker: in-place mutation is declared.
func ApplyDelta(b, d *bag.Bag) {
	b.AddBag(d)
}

// FoldInPlace carries the InPlace marker.
func FoldInPlace(b *bag.Bag, t schema.Tuple) {
	b.Remove(t, 1)
}

// Sum only reads its parameter.
func Sum(b *bag.Bag) int {
	return b.Len()
}

// Build mutates a local bag, which is fine.
func Build(t schema.Tuple) *bag.Bag {
	out := bag.New()
	out.Add(t, 2)
	return out
}

// CloneAndGrow mutates a clone, not the parameter.
func CloneAndGrow(b *bag.Bag, t schema.Tuple) *bag.Bag {
	c := b.Clone()
	c.Add(t, 1)
	return c
}

// read stands for a borrowed read (core.Manager.Read): f runs over a
// live bag it must treat as read-only.
func read(b *bag.Bag, f func(*bag.Bag) error) error { return f(b) }

// CountThenDrain hands a borrowed read a literal that mutates what it
// was lent; a literal has no name to carry a marker.
func CountThenDrain(b *bag.Bag) (n int) {
	_ = read(b, func(mv *bag.Bag) error {
		n = mv.Len()
		mv.Clear() // want: mutation of parameter (function literal)
		return nil
	})
	return n
}

// CountOnly's literal only reads: clean.
func CountOnly(b *bag.Bag) (n int) {
	_ = read(b, func(mv *bag.Bag) error {
		n = mv.Len()
		return nil
	})
	return n
}

// Narrow refills a bag parameter with a selection without a marker.
func Narrow(b, a *bag.Bag, keep func(schema.Tuple) bool) {
	b.Refill(a, keep) // want: mutation of parameter
}

// RefillInPlace carries the InPlace marker.
func RefillInPlace(b, a *bag.Bag, keep func(schema.Tuple) bool) {
	b.Refill(a, keep)
}
