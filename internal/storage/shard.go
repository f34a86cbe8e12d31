package storage

import (
	"fmt"
	"sort"

	"dvm/internal/schema"
)

// ShardSpec describes one sharded logical table: N member tables, each
// holding the tuples whose bag.ShardOf(key) equals its index. The
// members are ordinary tables named ShardName(logical, i); the spec is
// metadata the snapshot format persists so a restored database knows
// which tables form a shard group (and by what key they were split).
type ShardSpec struct {
	Logical string // logical table name (no backing table of its own)
	N       int    // shard count
	KeyCol  int    // hashed column index; -1 = full-tuple hash
}

// ShardName returns the member-table name of shard i of a logical
// table. The suffix is zero-padded so lexicographic member order
// equals shard-index order — the lock manager acquires sorted name
// sets, so sorted order IS shard order and per-shard lock acquisition
// stays canonical.
func ShardName(logical string, i int) string {
	return fmt.Sprintf("%s__s%02d", logical, i)
}

// CreateSharded creates the N member tables of a sharded logical table
// and registers its spec. The logical name itself gets no table; it
// only names the group.
func (db *Database) CreateSharded(logical string, sch *schema.Schema, kind Kind, n, keyCol int) ([]*Table, error) {
	if n < 1 {
		return nil, fmt.Errorf("storage: sharded table %q needs n >= 1, got %d", logical, n)
	}
	if db.Has(logical) {
		return nil, fmt.Errorf("storage: sharded table %q collides with an existing table", logical)
	}
	if _, dup := db.shardSpecs[logical]; dup {
		return nil, fmt.Errorf("storage: sharded table %q already exists", logical)
	}
	members := make([]*Table, n)
	for i := 0; i < n; i++ {
		t, err := db.Create(ShardName(logical, i), sch, kind)
		if err != nil {
			for j := 0; j < i; j++ {
				_ = db.Drop(ShardName(logical, j))
			}
			return nil, err
		}
		members[i] = t
	}
	if db.shardSpecs == nil {
		db.shardSpecs = make(map[string]ShardSpec)
	}
	db.shardSpecs[logical] = ShardSpec{Logical: logical, N: n, KeyCol: keyCol}
	return members, nil
}

// DropSharded drops a shard group's member tables and its spec.
func (db *Database) DropSharded(logical string) error {
	spec, ok := db.shardSpecs[logical]
	if !ok {
		return fmt.Errorf("storage: no sharded table %q", logical)
	}
	for i := 0; i < spec.N; i++ {
		_ = db.Drop(ShardName(logical, i))
	}
	delete(db.shardSpecs, logical)
	return nil
}

// Sharded returns the spec of a sharded logical table.
func (db *Database) Sharded(logical string) (ShardSpec, bool) {
	s, ok := db.shardSpecs[logical]
	return s, ok
}

// ShardSpecs returns every registered spec, sorted by logical name.
func (db *Database) ShardSpecs() []ShardSpec {
	out := make([]ShardSpec, 0, len(db.shardSpecs))
	for _, s := range db.shardSpecs {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Logical < out[j].Logical })
	return out
}

// completeShardSpecs returns the specs whose member tables are ALL among
// names (sorted, as Names returns them), sorted by logical name. Save
// persists only these: a snapshot that filters tables (the sql engine's
// external-only SaveExternal) silently sheds the specs of groups it
// dropped, instead of producing a DVM2 stream Load would reject as
// missing members.
func (db *Database) completeShardSpecs(names []string) []ShardSpec {
	has := func(name string) bool {
		i := sort.SearchStrings(names, name)
		return i < len(names) && names[i] == name
	}
	var out []ShardSpec
	for _, s := range db.ShardSpecs() {
		whole := true
		for i := 0; i < s.N; i++ {
			if !has(ShardName(s.Logical, i)) {
				whole = false
				break
			}
		}
		if whole {
			out = append(out, s)
		}
	}
	return out
}

// ShardTables returns the member tables of a shard group, in shard
// order.
func (db *Database) ShardTables(logical string) ([]*Table, error) {
	spec, ok := db.shardSpecs[logical]
	if !ok {
		return nil, fmt.Errorf("storage: no sharded table %q", logical)
	}
	out := make([]*Table, spec.N)
	for i := range out {
		t, err := db.Table(ShardName(logical, i))
		if err != nil {
			return nil, err
		}
		out[i] = t
	}
	return out, nil
}
