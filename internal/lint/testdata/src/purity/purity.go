// Package purity is a dvmlint fixture for the closure-purity
// analyzer. The fixture plays the algebra package (Config.AlgebraPkg
// points here), with local Bag and Table types standing in for the
// bag and storage roles, so every rule of the analyzer can be
// exercised without touching the real compiler.
package purity

// Bag stands in for bag.Bag (the Config.BagPkg role).
type Bag struct{ counts map[string]int }

// New builds an empty bag — a sanctioned snapshot constructor.
func New() *Bag { return &Bag{counts: map[string]int{}} }

// Clone stands in for bag.Clone's copy-on-write handle, which the analyzer allows.
func (b *Bag) Clone() *Bag {
	c := New()
	for k, v := range b.counts {
		c.counts[k] = v
	}
	return c
}

// Add mutates the bag in place.
func (b *Bag) Add(k string, n int) { b.counts[k] += n }

// Table stands in for storage.Table (the Config.StoragePkg role).
type Table struct{ Rows map[string]int }

// State is the per-evaluation state closures may mutate freely.
type State struct{ Slots []*Bag }

// Node is one compiled delta-program node.
type Node func(st *State) *Bag

// Compile is a compile root by name: every closure below is reachable
// from it, directly or through emit.
func Compile(live *Bag, table *Table, index map[string]int) []Node {
	var out []Node
	calls := 0

	// Impure: writes a captured counter across evaluations.
	out = append(out, func(st *State) *Bag {
		calls++ // want closure-purity: writes captured variable
		return New()
	})

	// Impure: captures the live bag itself — even a read-only Clone at
	// evaluation time observes post-compile mutations.
	out = append(out, func(st *State) *Bag {
		return live.Clone() // want closure-purity: captures live bag
	})

	// Impure: captures the storage table.
	out = append(out, func(st *State) *Bag {
		b := New()
		b.Add("rows", len(table.Rows)) // want closure-purity: captures storage table
		return b
	})

	// Impure: reads through a captured mutable map.
	out = append(out, func(st *State) *Bag {
		b := New()
		b.Add("n", index["n"]) // want closure-purity: captures mutable map
		return b
	})

	// Impure twice over: delete is a write, and the map is banned state.
	out = append(out, func(st *State) *Bag {
		delete(index, "gone") // want closure-purity: write AND capture
		return New()
	})

	// Pure: a fresh snapshot clone is owned by the closure.
	snap := live.Clone()
	out = append(out, func(st *State) *Bag { return snap })

	// Pure: mutation through the *State parameter is the sanctioned
	// channel (st is declared inside the literal).
	out = append(out, func(st *State) *Bag {
		st.Slots = append(st.Slots, New())
		return New()
	})

	// Pure: the bag-builder callback writes acc, which is declared
	// inside the OUTERMOST literal — one evaluation's local state, not
	// a capture across evaluations.
	out = append(out, func(st *State) *Bag {
		acc := New()
		each([]string{"a", "b"}, func(k string) { acc.Add(k, 1) })
		return acc
	})

	out = append(out, emit())
	return out
}

// emit is reached from Compile through a static call; its closure is
// checked too.
func emit() Node {
	misses := 0
	return func(st *State) *Bag {
		misses++ // want closure-purity: writes captured variable
		return New()
	}
}

// Bind is the second root shape: predicate binding.
func Bind(idx map[string]bool) func(string) bool {
	return func(k string) bool {
		return idx[k] // want closure-purity: captures mutable map
	}
}

// each drives the bag-builder callback.
func each(ks []string, f func(string)) {
	for _, k := range ks {
		f(k)
	}
}

// notReached is NOT reachable from Compile or Bind: its impure closure
// must not be flagged — the analyzer judges compiled code, not every
// closure in the package.
func notReached() Node {
	n := 0
	return func(st *State) *Bag {
		n++
		return New()
	}
}

// keep silences the unused-function diagnostic some tools raise for
// notReached without creating a call edge from a root.
var keep = notReached
