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
