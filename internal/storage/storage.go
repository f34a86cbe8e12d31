// Package storage provides the in-memory relational store underneath the
// maintenance engine: named tables holding bags of tuples, grouped into a
// Database that serves as the evaluator's state. Tables are partitioned
// into external tables (updatable by user transactions) and internal
// tables (view tables, logs, differential tables) as Section 3.1
// prescribes.
package storage

import (
	"fmt"
	"sort"

	"dvm/internal/bag"
	"dvm/internal/obs"
	"dvm/internal/obs/trace"
	"dvm/internal/schema"
)

// Kind distinguishes external (user) tables from internal (maintenance)
// tables. User transactions may only touch external tables.
type Kind uint8

// Table kinds.
const (
	External Kind = iota
	Internal
)

func (k Kind) String() string {
	if k == External {
		return "external"
	}
	return "internal"
}

// Table is a named bag of tuples with a schema.
type Table struct {
	name string
	sch  *schema.Schema
	kind Kind
	data *bag.Bag
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() *schema.Schema { return t.sch }

// Kind returns whether the table is external or internal.
func (t *Table) Kind() Kind { return t.kind }

// Data returns the live bag. Callers must treat it as read-only unless
// they own the surrounding transaction. The bag is the table's contents
// until the next Replace — Clear empties this very bag — so hold it
// only inside the transaction that read it; copy what must outlive it.
func (t *Table) Data() *bag.Bag { return t.data }

// Len returns the table's cardinality with duplicates.
func (t *Table) Len() int { return t.data.Len() }

// Insert validates and adds n copies of a tuple.
func (t *Table) Insert(tu schema.Tuple, n int) error {
	if err := t.sch.Validate(tu); err != nil {
		return fmt.Errorf("storage: insert into %s: %w", t.name, err)
	}
	t.data.Add(tu, n)
	return nil
}

// Delete removes up to n copies of a tuple, returning how many were
// actually removed.
func (t *Table) Delete(tu schema.Tuple, n int) int {
	have := t.data.Count(tu)
	if have < n {
		n = have
	}
	t.data.Remove(tu, n)
	return n
}

// Replace swaps the table's contents for b.
func (t *Table) Replace(b *bag.Bag) { t.data = b }

// Clear empties the table in place (bag.Bag.Clear): whoever holds Data()
// sees the table emptied, the bag's own indexes survive, empty, and a
// table that is filled and cleared in rounds refills into the buckets
// it already owns — kept only while the last two fills justify them
// (the retention rule is Bag.Clear's), so a table that once held a bulk
// load neither pins that capacity nor pays for it on every Clear.
func (t *Table) Clear() { t.data.Clear() }

// Database is a mutable database state: a mapping from table names to
// bags (Section 2.1). It implements algebra.Source.
type Database struct {
	tables  map[string]*Table
	metrics *obs.Registry
	tracer  *trace.Tracer
}

// NewDatabase returns an empty database.
func NewDatabase() *Database { return &Database{tables: make(map[string]*Table)} }

// SetMetrics attaches an obs registry so Save records
// snapshot_save_bytes. Load-side bytes are recorded by the caller that
// owns the registry (the sql engine), since Load constructs a fresh
// database.
func (db *Database) SetMetrics(r *obs.Registry) { db.metrics = r }

// SetTracer attaches a tracer so Save emits a storage.snapshot.save
// trace. Like SetMetrics, the load side is traced by the caller that
// owns the tracer (the sql engine), since Load constructs a fresh
// database.
func (db *Database) SetTracer(t *trace.Tracer) { db.tracer = t }

// Create adds a new table.
func (db *Database) Create(name string, sch *schema.Schema, kind Kind) (*Table, error) {
	if _, exists := db.tables[name]; exists {
		return nil, fmt.Errorf("storage: table %q already exists", name)
	}
	t := &Table{name: name, sch: sch, kind: kind, data: bag.New()}
	db.tables[name] = t
	return t, nil
}

// Drop removes a table.
func (db *Database) Drop(name string) error {
	if _, ok := db.tables[name]; !ok {
		return fmt.Errorf("storage: no table %q", name)
	}
	delete(db.tables, name)
	return nil
}

// Table looks up a table by name.
func (db *Database) Table(name string) (*Table, error) {
	t, ok := db.tables[name]
	if !ok {
		return nil, fmt.Errorf("storage: no table %q", name)
	}
	return t, nil
}

// Has reports whether a table exists.
func (db *Database) Has(name string) bool {
	_, ok := db.tables[name]
	return ok
}

// Bag implements algebra.Source.
func (db *Database) Bag(name string) (*bag.Bag, error) {
	t, err := db.Table(name)
	if err != nil {
		return nil, err
	}
	// The live bag: evaluation runs under the caller's transaction
	// locks, and algebra.Eval clones its result before it escapes.
	return t.data, nil
}

// Names returns all table names, sorted.
func (db *Database) Names() []string {
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Snapshot returns a copy of the database state: an s_p frozen for
// later comparison. Tuples are shared (immutable), and each bag is a
// copy-on-write Clone: a pointer per table now, and the table — live or
// in the snapshot — copies its map at its first write, so neither side
// ever sees the other's changes.
func (db *Database) Snapshot() *Database {
	c := NewDatabase()
	c.metrics = db.metrics
	c.tracer = db.tracer
	for name, t := range db.tables {
		c.tables[name] = &Table{name: t.name, sch: t.sch, kind: t.kind, data: t.data.Clone()}
	}
	return c
}
