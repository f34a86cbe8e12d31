// Package txn implements the paper's transaction model (Section 2.2):
// abstract transactions are simultaneous assignments {R_i := Q_i}; the
// maintenance algorithms only require simple transactions
// {R_i := (R_i ∸ ∇R_i) ⊎ △R_i}. The package also provides the
// weak-minimality normalization of Section 4.1 and a lock manager used
// to measure view downtime.
package txn

import (
	"fmt"

	"dvm/internal/algebra"
	"dvm/internal/bag"
	"dvm/internal/schema"
	"dvm/internal/storage"
)

// Update is one table's change in a simple transaction: the bag of
// deleted tuples (∇R) and the bag of inserted tuples (△R).
type Update struct {
	Delete *bag.Bag
	Insert *bag.Bag
}

// normalized returns the Update with nil bags replaced by empties.
func (u Update) normalized() Update {
	if u.Delete == nil {
		u.Delete = bag.New()
	}
	if u.Insert == nil {
		u.Insert = bag.New()
	}
	return u
}

// Txn is a simple transaction: per-table deletes and inserts applied
// simultaneously. The zero value (nil map) is the empty transaction.
type Txn map[string]Update

// Insert builds a transaction inserting the given tuples into one table.
func Insert(table string, rows *bag.Bag) Txn {
	return Txn{table: Update{Insert: rows}}
}

// Delete builds a transaction deleting the given tuples from one table.
func Delete(table string, rows *bag.Bag) Txn {
	return Txn{table: Update{Delete: rows}}
}

// Merge folds o into t (t and o are applied "simultaneously": deletes
// and inserts are unioned per table). It returns the combined txn
// without mutating either input.
func (t Txn) Merge(o Txn) Txn {
	out := Txn{}
	for name, u := range t {
		out[name] = u.normalized()
	}
	for name, u := range o {
		u = u.normalized()
		if have, ok := out[name]; ok {
			out[name] = Update{
				Delete: bag.UnionAll(have.Delete, u.Delete),
				Insert: bag.UnionAll(have.Insert, u.Insert),
			}
		} else {
			out[name] = u
		}
	}
	return out
}

// Normalize returns the weakly minimal equivalent of t in the current
// state of db: effective deletes are capped at current multiplicities
// (∇R := ∇R min R), which leaves (R ∸ ∇R) ⊎ △R unchanged but
// establishes the precondition ∇R ⊑ R required by the differential
// algorithms (Section 4.1). A ∇R that is weakly minimal already — every
// delete of an existing row — is then ∇R itself: one lookup per tuple
// finds that out, and the result shares the caller's bag instead of
// rebuilding it. Normalize is NormalizeInto a new transaction, whose
// bags it then makes the result's own by Clone (copy-on-write, O(1)):
// the caller may go on changing its bags.
func (t Txn) Normalize(db *storage.Database) (Txn, error) {
	out := Txn{}
	if err := t.NormalizeInto(db, out); err != nil {
		return nil, err
	}
	for name, u := range out {
		out[name] = Update{Delete: u.Delete.Clone(), Insert: u.Insert.Clone()}
	}
	return out, nil
}

// none is the bag a normalized transaction holds for a nil ∇R or △R.
// It is shared by every transaction, so nothing may write it: like every
// bag of a normalized transaction, it is only read, and a table that
// keeps one keeps a Clone.
var none = bag.New()

// NormalizeInto writes Normalize's answer into out, an empty transaction
// the caller owns and may reuse, without copying a bag: a weakly minimal
// ∇R and every △R are t's own bags, so the caller must leave them
// unchanged for as long as it uses out; a nil one is a shared empty bag,
// and only a ∇R that is not weakly minimal is a new one. The exception
// is a bag that is the live contents of a table t writes (Delete(R,
// R's own bag) empties R): the base update would write the bag it reads,
// so out holds a Clone of it. Every bag in out is only to be read. On an
// error, out holds part of the answer.
func (t Txn) NormalizeInto(db *storage.Database, out Txn) error {
	for name, u := range t {
		tb, err := db.Table(name)
		if err != nil {
			return fmt.Errorf("txn: normalize: %w", err)
		}
		del, ins := u.Delete, u.Insert
		switch {
		case del == nil:
			del = none
		case !del.SubBagOf(tb.Data()):
			del = bag.Min(del, tb.Data())
		case t.writesBag(db, del):
			del = del.Clone()
		}
		switch {
		case ins == nil:
			ins = none
		case t.writesBag(db, ins):
			ins = ins.Clone()
		}
		out[name] = Update{Delete: del, Insert: ins}
	}
	return nil
}

// writesBag reports whether b is the live bag of a table t writes.
func (t Txn) writesBag(db *storage.Database, b *bag.Bag) bool {
	for name := range t {
		if tb, err := db.Table(name); err == nil && tb.Data() == b {
			return true
		}
	}
	return false
}

// Apply installs the transaction into db with simultaneous semantics:
// for each table, R := (R ∸ ∇R) ⊎ △R computed from the pre-state. Since
// each table's right-hand side reads only that table, per-table
// application is equivalent.
func (t Txn) Apply(db *storage.Database) error {
	// Validate everything before mutating anything.
	for name, u := range t {
		tb, err := db.Table(name)
		if err != nil {
			return fmt.Errorf("txn: apply: %w", err)
		}
		u = u.normalized()
		var verr error
		u.Insert.Each(func(tu schema.Tuple, _ int) {
			if verr == nil {
				verr = tb.Schema().Validate(tu)
			}
		})
		if verr != nil {
			return fmt.Errorf("txn: apply to %s: %w", name, verr)
		}
	}
	for name, u := range t {
		tb, _ := db.Table(name)
		u = u.normalized()
		next := bag.UnionAll(bag.Monus(tb.Data(), u.Delete), u.Insert)
		tb.Replace(next)
	}
	return nil
}

// TouchesInternal reports whether the transaction writes any internal
// table of db — user transactions must not (Section 3.1).
func (t Txn) TouchesInternal(db *storage.Database) (string, bool) {
	for name := range t {
		if tb, err := db.Table(name); err == nil && tb.Kind() == storage.Internal {
			return name, true
		}
	}
	return "", false
}

// Assignment is one clause of an abstract transaction {Table := Expr}.
type Assignment struct {
	Table string
	Expr  algebra.Expr
}

// ApplyAssignments executes an abstract transaction {T_i := Q_i} with
// simultaneous semantics: every right-hand side is evaluated against the
// pre-state, then all results are installed. This is the T1 + T2
// composition of Section 5.1: no assignment sees another's effect.
func ApplyAssignments(db *storage.Database, assigns []Assignment) error {
	// One evaluator for the whole transaction: the right-hand sides of a
	// makesafe bundle share large subexpressions, and all of them read
	// the same pre-state.
	ev := algebra.NewEvaluator(db)
	results := make([]*bag.Bag, len(assigns))
	for i, a := range assigns {
		if !db.Has(a.Table) {
			return fmt.Errorf("txn: assignment to unknown table %q", a.Table)
		}
		b, err := ev.Eval(a.Expr)
		if err != nil {
			return fmt.Errorf("txn: assignment to %s: %w", a.Table, err)
		}
		results[i] = b
	}
	for i, a := range assigns {
		tb, _ := db.Table(a.Table)
		tb.Replace(results[i])
	}
	return nil
}
