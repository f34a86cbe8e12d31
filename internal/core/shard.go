package core

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"dvm/internal/algebra"
	"dvm/internal/bag"
	"dvm/internal/delta"
	"dvm/internal/obs"
	"dvm/internal/obs/trace"
	"dvm/internal/schema"
	"dvm/internal/storage"
	"dvm/internal/txn"
)

// Sharded deferred maintenance: a Combined view's logs (▲R/▼R), its
// differential tables (∇MV/△MV), and co-partitioned mirrors of its base
// tables are split into N hash shards, so makesafe appends shard-locally
// under per-shard locks and propagate_C runs the Figure 2 DEL/ADD
// expressions per shard, merging only at the view boundary.
//
// Correctness rests on two partitioning facts:
//
//  1. Every bag operation except × is pointwise in tuple values, so any
//     deterministic value-hash partition distributes it shard by shard.
//     The per-shard fold into ∇MV/△MV and the sequential per-shard MV
//     apply are therefore exactly equal to their merged forms for ANY
//     view.
//  2. Per-shard EVALUATION of the DEL/ADD expressions is exact when the
//     partition cannot lose cross-shard join pairs: either the view has
//     no × at all (full-tuple hashing, everything pointwise), or every
//     base is hashed on a join-key column connected by the view's
//     equality predicates (a surviving pair has equal keys, hence equal
//     hashes, hence lives inside one shard). planShards decides which
//     case applies; views fitting neither evaluate their deltas over the
//     merged window (still sharded state, serial evaluation).
//
// The win on top of parallel fan-out is algorithmic: a shard whose log
// slice is empty provably contributes ∅ (every DEL/ADD term carries a
// log factor), so propagate touches only DIRTY shards — and each dirty
// shard's evaluation scans 1/N-sized mirrors instead of whole base
// tables. Under the paper's point-of-sale workload (one customer per
// transaction) most propagates touch a single shard.

// WithShards configures every Combined view the manager defines to use
// n hash shards (n <= 1 keeps the serial single-shard engine). Not
// supported together with WithSharedLogs.
func WithShards(n int) ManagerOption {
	return func(m *Manager) {
		if n < 1 {
			n = 1
		}
		m.shards = n
	}
}

// SetShards reconfigures the shard count; it fails once views exist
// (their physical layout is fixed at definition time). The sql engine's
// WithShards option routes through here.
func (m *Manager) SetShards(n int) error {
	if len(m.views) > 0 {
		return fmt.Errorf("core: cannot change shard count with %d views defined", len(m.views))
	}
	if n < 1 {
		n = 1
	}
	m.shards = n
	return nil
}

// Shards returns the configured shard count (1 = serial engine).
func (m *Manager) Shards() int {
	if m.shards < 1 {
		return 1
	}
	return m.shards
}

// viewShards is the physical layout of one sharded Combined view.
type viewShards struct {
	n int
	// keyCol maps each base table to the hashed column index (-1 =
	// full tuple); only meaningful when merged is false.
	keyCol map[string]int
	// viewKey is the output column diff routing hashes (-1 = full
	// tuple).
	viewKey int
	// merged marks the fallback plan: per-shard evaluation would be
	// unsound for this view shape, so deltas evaluate over the merged
	// log window (state stays sharded; evaluation is serial).
	merged bool
	// logDel/logIns/dtDel/dtAdd hold the member tables of the shard
	// groups, in shard order.
	logDel map[string][]*storage.Table
	logIns map[string][]*storage.Table
	dtDel  []*storage.Table
	dtAdd  []*storage.Table
	// mirrors maps each base to its co-partitioned mirror group (nil
	// in merged mode).
	mirrors map[string]*mirrorGroup
	// met holds the per-shard instruments.
	met []*shardMetrics
}

// mirrorGroup is a co-partitioned copy of one base table, shared by
// every view that hashes the base on the same column. Execute keeps it
// in sync with the base (same weakly-minimal deltas, routed per
// shard); propagate workers read it instead of scanning the full base.
type mirrorGroup struct {
	base    string
	keyCol  int
	logical string
	tables  []*storage.Table
	refs    int
}

// mirrorLogical names a mirror shard group.
func mirrorLogical(base string, keyCol int) string {
	if keyCol < 0 {
		return fmt.Sprintf("__shard_%s__kt", base)
	}
	return fmt.Sprintf("__shard_%s__k%d", base, keyCol)
}

// shardID renders one shard's zero-padded identifier ("s03") — the
// dvm_shard pprof label value and the shard half of the obs label.
func shardID(i int) string { return fmt.Sprintf("s%02d", i) }

// shardLabel renders the obs label of one view shard ("v0/s03").
func shardLabel(view string, i int) string { return view + "/" + shardID(i) }

// setupShards creates the sharded physical layout of a Combined view:
// log shard groups, diff shard groups, per-shard instruments, and (for
// shard-local plans) the base mirrors. Called by DefineView after the
// plan options are applied; the caller cleans up via dropShards on
// error.
func (m *Manager) setupShards(v *View) error {
	if m.shared != nil {
		return fmt.Errorf("core: view %q: sharding is not supported with shared logs", v.Name)
	}
	n := m.Shards()
	keyCols, viewKey, local := planShards(v.Def)
	sh := &viewShards{
		n:       n,
		keyCol:  keyCols,
		viewKey: viewKey,
		merged:  !local,
		logDel:  map[string][]*storage.Table{},
		logIns:  map[string][]*storage.Table{},
		mirrors: map[string]*mirrorGroup{},
	}
	v.sh = sh
	for _, b := range v.bases {
		tb, _ := m.db.Table(b)
		kc := -1
		if local {
			kc = keyCols[b]
		}
		dn := fmt.Sprintf("__log_del_%s__%s", b, v.Name)
		in := fmt.Sprintf("__log_ins_%s__%s", b, v.Name)
		dt, err := m.db.CreateSharded(dn, tb.Schema(), storage.Internal, n, kc)
		if err != nil {
			return err
		}
		it, err := m.db.CreateSharded(in, tb.Schema(), storage.Internal, n, kc)
		if err != nil {
			return err
		}
		v.logDel[b], v.logIns[b] = dn, in
		sh.logDel[b], sh.logIns[b] = dt, it
	}
	v.dtDel = "__dmv_del_" + v.Name
	v.dtAdd = "__dmv_add_" + v.Name
	dd, err := m.db.CreateSharded(v.dtDel, v.Def.Schema(), storage.Internal, n, viewKey)
	if err != nil {
		return err
	}
	da, err := m.db.CreateSharded(v.dtAdd, v.Def.Schema(), storage.Internal, n, viewKey)
	if err != nil {
		return err
	}
	sh.dtDel, sh.dtAdd = dd, da
	if local {
		for _, b := range v.bases {
			g, err := m.ensureMirror(b, keyCols[b], n)
			if err != nil {
				return err
			}
			sh.mirrors[b] = g
		}
	}
	sh.met = make([]*shardMetrics, n)
	for i := range sh.met {
		sh.met[i] = newShardMetrics(m.obs, shardLabel(v.Name, i))
	}
	return nil
}

// ensureMirror returns (creating on first use) the co-partitioned
// mirror group of one base table, populated from its current contents.
func (m *Manager) ensureMirror(base string, keyCol, n int) (*mirrorGroup, error) {
	key := mirrorLogical(base, keyCol)
	if g, ok := m.mirrors[key]; ok {
		g.refs++
		return g, nil
	}
	tb, err := m.db.Table(base)
	if err != nil {
		return nil, err
	}
	tables, err := m.db.CreateSharded(key, tb.Schema(), storage.Internal, n, keyCol)
	if err != nil {
		return nil, err
	}
	tb.Data().Each(func(tu schema.Tuple, c int) {
		tables[bag.ShardOf(tu, keyCol, n)].Data().Add(tu, c)
	})
	g := &mirrorGroup{base: base, keyCol: keyCol, logical: key, tables: tables, refs: 1}
	if m.mirrors == nil {
		m.mirrors = map[string]*mirrorGroup{}
	}
	m.mirrors[key] = g
	return g, nil
}

// dropShards tears down a sharded view's physical layout (DropView and
// DefineView error cleanup).
func (m *Manager) dropShards(v *View) {
	if v.sh == nil {
		return
	}
	for _, b := range v.bases {
		if n, ok := v.logDel[b]; ok {
			_ = m.db.DropSharded(n)
		}
		if n, ok := v.logIns[b]; ok {
			_ = m.db.DropSharded(n)
		}
	}
	if v.dtDel != "" {
		_ = m.db.DropSharded(v.dtDel)
		_ = m.db.DropSharded(v.dtAdd)
	}
	for _, g := range v.sh.mirrors {
		g.refs--
		if g.refs <= 0 {
			_ = m.db.DropSharded(g.logical)
			delete(m.mirrors, g.logical)
		}
	}
	v.sh = nil
}

// planShards analyzes a view definition and picks the shard-local
// evaluation plan:
//
//   - no × anywhere (an optional top-level Π over {base, σ, ⊎, ∸, ε}):
//     full-tuple hashing — every operator is additive or pointwise, so
//     per-shard evaluation is exact (keyCol = -1 everywhere);
//   - an SPJ tree Π?(σ/× over bases) whose equality predicates connect
//     one column of EVERY base into a single equivalence class:
//     key-hash co-partitioning on that class — any join pair surviving
//     the predicates has equal keys and therefore never spans shards.
//
// ok=false means neither applies; the caller falls back to merged
// evaluation over sharded state.
func planShards(def algebra.Expr) (keyCols map[string]int, viewKey int, ok bool) {
	if !hasProduct(def) {
		if !pointwiseSafe(def, true) {
			return nil, -1, false
		}
		keyCols = map[string]int{}
		for _, b := range algebra.BaseNames(def) {
			keyCols[b] = -1
		}
		return keyCols, -1, true
	}
	return planSPJShards(def)
}

func hasProduct(e algebra.Expr) bool {
	switch n := e.(type) {
	case *algebra.Product:
		return true
	case *algebra.Select:
		return hasProduct(n.Child)
	case *algebra.Project:
		return hasProduct(n.Child)
	case *algebra.DupElim:
		return hasProduct(n.Child)
	case *algebra.UnionAll:
		return hasProduct(n.L) || hasProduct(n.R)
	case *algebra.Monus:
		return hasProduct(n.L) || hasProduct(n.R)
	}
	return false
}

// pointwiseSafe reports whether a ×-free tree keeps full-tuple
// partitions aligned: σ and ⊎ preserve the leaf value space, ∸ and ε
// operate pointwise in it, and a single Π is allowed only at the top
// (a Π below a pointwise operator would re-key the values). Non-empty
// literals are rejected (a constant would be counted once per shard).
func pointwiseSafe(e algebra.Expr, top bool) bool {
	switch n := e.(type) {
	case *algebra.Base:
		return true
	case *algebra.Literal:
		return n.Bag.Empty()
	case *algebra.Select:
		return pointwiseSafe(n.Child, false)
	case *algebra.Project:
		return top && pointwiseSafe(n.Child, false)
	case *algebra.DupElim:
		return pointwiseSafe(n.Child, false)
	case *algebra.UnionAll:
		return pointwiseSafe(n.L, false) && pointwiseSafe(n.R, false)
	case *algebra.Monus:
		return pointwiseSafe(n.L, false) && pointwiseSafe(n.R, false)
	}
	return false
}

// planSPJShards handles the SPJ case: peel an optional top Π, require
// a σ/×/base tree below it, union-find the equality predicates, and
// look for one class covering every base.
func planSPJShards(def algebra.Expr) (map[string]int, int, bool) {
	body := def
	var proj *algebra.Project
	if p, isP := body.(*algebra.Project); isP {
		proj = p
		body = p.Child
	}
	var bases []*algebra.Base
	var pairs [][2]string
	okShape := collectSPJ(body, &bases, &pairs)
	if !okShape || len(bases) == 0 {
		return nil, -1, false
	}
	// Column name -> owning base (unique names only; join trees qualify
	// columns per side, so collisions are rare and simply unusable as
	// shard keys).
	owner := map[string]*algebra.Base{}
	dup := map[string]bool{}
	for _, b := range bases {
		sch := b.Schema()
		for i := 0; i < sch.Len(); i++ {
			name := sch.Column(i).Name
			if _, seen := owner[name]; seen {
				dup[name] = true
				continue
			}
			owner[name] = b
		}
	}
	// Union-find over column names joined by equality predicates.
	parent := map[string]string{}
	var find func(string) string
	find = func(x string) string {
		if parent[x] == "" || parent[x] == x {
			parent[x] = x
			return x
		}
		r := find(parent[x])
		parent[x] = r
		return r
	}
	union := func(a, b string) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if ra > rb {
				ra, rb = rb, ra
			}
			parent[rb] = ra // deterministic representative: least name
		}
	}
	for _, pr := range pairs {
		union(pr[0], pr[1])
	}
	// Classes, by sorted representative, searched in order for one that
	// covers every base.
	classes := map[string][]string{}
	var reps []string
	for col := range parent {
		r := find(col)
		if len(classes[r]) == 0 {
			reps = append(reps, r)
		}
		classes[r] = append(classes[r], col)
	}
	sort.Strings(reps)
	for _, r := range reps {
		cols := classes[r]
		sort.Strings(cols)
		keyCols := map[string]int{}
		for _, col := range cols {
			b, okOwn := owner[col]
			if !okOwn || dup[col] {
				continue
			}
			if _, have := keyCols[b.Name]; have {
				continue
			}
			idx, err := b.Schema().Lookup(col)
			if err != nil {
				continue
			}
			keyCols[b.Name] = idx
		}
		covered := true
		for _, b := range bases {
			if _, okb := keyCols[b.Name]; !okb {
				covered = false
				break
			}
		}
		if !covered {
			continue
		}
		viewKey := -1
		if proj != nil {
			for i, src := range proj.Cols {
				if find(src) == r && parent[src] != "" {
					viewKey = i
					break
				}
			}
		} else {
			sch := body.Schema()
			for i := 0; i < sch.Len(); i++ {
				name := sch.Column(i).Name
				if parent[name] != "" && find(name) == r {
					viewKey = i
					break
				}
			}
		}
		return keyCols, viewKey, true
	}
	return nil, -1, false
}

// collectSPJ walks a σ/×/base tree, gathering base leaves and the
// attribute-equality conjuncts of every σ. Any other node kind fails
// the shape check.
func collectSPJ(e algebra.Expr, bases *[]*algebra.Base, pairs *[][2]string) bool {
	switch n := e.(type) {
	case *algebra.Base:
		*bases = append(*bases, n)
		return true
	case *algebra.Select:
		ps, _ := algebra.EquiPairs(n.Pred)
		*pairs = append(*pairs, ps...)
		return collectSPJ(n.Child, bases, pairs)
	case *algebra.Product:
		return collectSPJ(n.L, bases, pairs) && collectSPJ(n.R, bases, pairs)
	}
	return false
}

// --- makesafe: shard-local log appends -------------------------------

// appendToLogsSharded is appendToLogs for a sharded view: the
// transaction's ∇R/△R are routed by shard key and merged into each
// dirty shard's slice of the log under that shard's write lock, with
// the same weakly minimal in-place merge as the serial path:
//
//	▼R_i := ▼R_i ⊎ (∇R_i ∸ ▲R_i);  ▲R_i := (▲R_i ∸ ∇R_i) ⊎ △R_i
//
// Shards are visited in ascending index order and one lock is held at
// a time (no nesting), so acquisition order is canonical.
func (m *Manager) appendToLogsSharded(v *View, nt txn.Txn) error {
	sh := v.sh
	for _, b := range v.bases {
		u, ok := nt[b]
		if !ok {
			continue
		}
		del, ins := v.relevant(b, u)
		kc := sh.shardKey(b)
		delParts := bag.Partition(del, kc, sh.n)
		insParts := bag.Partition(ins, kc, sh.n)
		for i := 0; i < sh.n; i++ {
			if delParts[i].Empty() && insParts[i].Empty() {
				continue
			}
			delLog, insLog := sh.logDel[b][i], sh.logIns[b][i]
			di, ii := delParts[i], insParts[i]
			err := m.locks.WithWrite([]string{delLog.Name(), insLog.Name()}, func() error {
				mergeDelta(delLog, insLog, di, ii, false)
				return nil
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// shardKey returns the routing column for one base (-1 in merged mode:
// full-tuple hashing keeps Σ shards == log without a key).
func (sh *viewShards) shardKey(b string) int {
	if sh.merged {
		return -1
	}
	return sh.keyCol[b]
}

// updateMirrors applies a transaction's effective base-table deltas to
// every registered mirror group, routed per shard under the shard's
// write lock. Runs inside Execute's apply step, right after the base
// tables themselves change, so mirrors always equal their hash slice
// of the base.
func (m *Manager) updateMirrors(nt txn.Txn) {
	if len(m.mirrors) == 0 {
		return
	}
	keys := make([]string, 0, len(m.mirrors))
	for k := range m.mirrors {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		g := m.mirrors[k]
		u, ok := nt[g.base]
		if !ok {
			continue
		}
		n := len(g.tables)
		dels, inss := bag.Partition(u.Delete, g.keyCol, n), bag.Partition(u.Insert, g.keyCol, n)
		for i, tb := range g.tables {
			if dels[i].Empty() && inss[i].Empty() {
				continue
			}
			_ = m.locks.WithWrite([]string{tb.Name()}, func() error {
				tb.Data().ApplyDelta(dels[i], inss[i])
				return nil
			})
		}
	}
}

// --- propagate: per-shard DEL/ADD with a bounded worker pool ---------

// shardDelta is one shard's staged evaluation result. compiled marks a
// compiled-program evaluation; evalDur is the eval-only wall time
// (excluding lock wait) and stats its join work counters, both observed
// post-hoc by the coordinator.
type shardDelta struct {
	shard    int
	del      *bag.Bag
	add      *bag.Bag
	dur      time.Duration
	err      error
	compiled bool
	evalDur  time.Duration
	stats    algebra.Stats
}

// dirtyShards lists the shard indices with a non-empty log slice. An
// empty slice provably contributes ∅ (every Figure 2 DEL/ADD term
// carries at least one log factor), so clean shards are skipped
// entirely — the algorithmic half of the sharding win.
func (m *Manager) dirtyShards(v *View) []int {
	sh := v.sh
	var out []int
	for i := 0; i < sh.n; i++ {
		dirty := false
		for _, b := range v.bases {
			if sh.logDel[b][i].Len() > 0 || sh.logIns[b][i].Len() > 0 {
				dirty = true
				break
			}
		}
		if dirty {
			out = append(out, i)
		}
	}
	return out
}

// shardSource is the algebra.Source a propagate worker evaluates
// against: base tables resolve to the shard's mirror slice and the
// view's canonical log names to the shard's log slice. Everything is
// pre-resolved by the coordinator, so workers share no map lookups
// with anyone.
type shardSource map[string]*bag.Bag

func (s shardSource) Bag(name string) (*bag.Bag, error) {
	b, ok := s[name]
	if !ok {
		return nil, fmt.Errorf("core: shard evaluation reached unexpected table %q", name)
	}
	return b, nil
}

// shardSourceFor builds the evaluation source of one shard. Must be
// called with the shard's tables quiescent (single-writer discipline).
func (m *Manager) shardSourceFor(v *View, i int) shardSource {
	sh := v.sh
	src := shardSource{}
	for _, b := range v.bases {
		src[v.logDel[b]] = sh.logDel[b][i].Data()
		src[v.logIns[b]] = sh.logIns[b][i].Data()
		if g, ok := sh.mirrors[b]; ok {
			src[b] = g.tables[i].Data()
		}
	}
	return src
}

// mergedSource resolves the view's canonical log names to freshly
// merged windows and base tables to the live database — the fallback
// evaluation state for views without a shard-local plan.
func (m *Manager) mergedSource(v *View) shardSource {
	sh := v.sh
	src := shardSource{}
	for _, b := range v.bases {
		src[v.logDel[b]] = mergeTables(sh.logDel[b])
		src[v.logIns[b]] = mergeTables(sh.logIns[b])
		tb, _ := m.db.Table(b)
		src[b] = tb.Data()
	}
	return src
}

func mergeTables(ts []*storage.Table) *bag.Bag {
	out := bag.New()
	for _, t := range ts {
		out.AddBag(t.Data())
	}
	return out
}

// shardLockNames returns the lock set a worker holds while evaluating
// shard i: the shard's log slices plus its mirror slices.
func (m *Manager) shardLockNames(v *View, i int) []string {
	sh := v.sh
	var names []string
	for _, b := range v.bases {
		names = append(names, sh.logDel[b][i].Name(), sh.logIns[b][i].Name())
		if g, ok := sh.mirrors[b]; ok {
			names = append(names, g.tables[i].Name())
		}
	}
	return names
}

// propagateWorkers bounds the pool. On a single-core box the pool
// still runs with two workers so the concurrent path is exercised (and
// race-tested); the speedup there comes from dirty-shard pruning and
// 1/N-sized mirror scans, not parallelism.
func propagateWorkers(dirty int) int {
	w := runtime.GOMAXPROCS(0)
	if w < 2 {
		w = 2
	}
	if w > dirty {
		w = dirty
	}
	if w < 1 {
		w = 1
	}
	return w
}

// foldLogSharded is the sharded body of propagate_C: stage per-shard
// DEL/ADD evaluation across a bounded worker pool, then install —
// clear the consumed log slices, route the deltas by view-value hash,
// and fold each destination diff shard in place. Nothing is mutated
// until every shard's evaluation has succeeded, so a failed propagate
// leaves logs and diffs untouched.
func (m *Manager) foldLogSharded(v *View, parent *trace.Span) error {
	sh := v.sh
	if v.met != nil {
		v.met.propagateTuples.Add(int64(m.logVolume(v)))
	}

	var results []shardDelta
	if sh.merged {
		// Fallback plan: one serial evaluation over the merged window.
		sp := parent.StartChild(trace.SpanPropagateShard,
			trace.Str("view", v.Name), trace.Str("mode", "merged"))
		start := time.Now()
		var err error
		if cd := v.cd; cd != nil && cd.shard != nil {
			var outs []*bag.Bag
			var stats algebra.Stats
			outs, stats, err = cd.shard.Eval(cd.mergedSt, m.mergedSource(v))
			if err == nil {
				dur := time.Since(start)
				m.observeCompiled(v, sp, dur, stats)
				results = append(results, shardDelta{shard: -1, del: outs[0], add: outs[1], dur: dur})
			}
		} else {
			ev := algebra.NewEvaluator(m.mergedSource(v))
			var d *bag.Bag
			d, err = ev.Eval(v.shDel)
			if err == nil {
				var a *bag.Bag
				a, err = ev.Eval(v.shAdd)
				if err == nil {
					results = append(results, shardDelta{shard: -1, del: d, add: a, dur: time.Since(start)})
				}
			}
		}
		sp.EndExplicit(time.Since(start))
		if err != nil {
			return err
		}
	} else {
		dirty := m.dirtyShards(v)
		parent.SetAttrs(trace.Int("shards", int64(sh.n)), trace.Int("dirty_shards", int64(len(dirty))))
		if len(dirty) == 0 {
			return nil
		}
		results = make([]shardDelta, len(dirty))
		// The coordinator owns every span and every table lookup; a
		// worker sees only its pre-resolved source, its lock set, and
		// its result slot.
		spans := make([]*trace.Span, len(dirty))
		srcs := make([]shardSource, len(dirty))
		lockSets := make([][]string, len(dirty))
		for j, i := range dirty {
			spans[j] = parent.StartChild(trace.SpanPropagateShard,
				trace.Str("view", v.Name), trace.Int("shard", int64(i)))
			srcs[j] = m.shardSourceFor(v, i)
			lockSets[j] = m.shardLockNames(v, i)
		}
		workers := propagateWorkers(len(dirty))
		jobs := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := range jobs {
					results[j] = m.evalShard(v, dirty[j], srcs[j], lockSets[j])
				}
			}()
		}
		for j := range dirty {
			jobs <- j
		}
		close(jobs)
		wg.Wait()
		for j := range results {
			spans[j].SetAttrs(trace.Int("del_tuples", tupleLen(results[j].del)),
				trace.Int("add_tuples", tupleLen(results[j].add)))
			if results[j].compiled && results[j].err == nil {
				// Post-hoc, coordinator-side emission of the worker's
				// compiled-eval metrics and span (workers never touch
				// the tracer or obs families).
				m.observeCompiled(v, spans[j], results[j].evalDur, results[j].stats)
			}
			spans[j].EndExplicit(results[j].dur)
			if results[j].err != nil {
				return fmt.Errorf("core: propagate shard %d of %q: %w", dirty[j], v.Name, results[j].err)
			}
		}
	}

	// Install phase. First consume the evaluated log slices...
	for _, r := range results {
		if r.shard < 0 {
			m.clearLogShards(v)
			continue
		}
		for _, b := range v.bases {
			m.clearLogShard(v, b, r.shard)
		}
	}
	// ...then route the staged deltas to their destination diff shards
	// (view-value hash: the only cross-shard exchange in the pipeline)...
	destDel := make([]*bag.Bag, sh.n)
	destAdd := make([]*bag.Bag, sh.n)
	for i := range destDel {
		destDel[i], destAdd[i] = bag.New(), bag.New()
	}
	for _, r := range results {
		r.del.Each(func(t schema.Tuple, c int) {
			destDel[bag.ShardOf(t, sh.viewKey, sh.n)].Add(t, c)
		})
		r.add.Each(func(t schema.Tuple, c int) {
			destAdd[bag.ShardOf(t, sh.viewKey, sh.n)].Add(t, c)
		})
	}
	// ...and fold, shard by shard, under each diff shard's write lock:
	//   ∇MV_i := ∇MV_i ⊎ (D_i ∸ △MV_i);  △MV_i := (△MV_i ∸ D_i) ⊎ A_i
	// (plus the strong-minimality cancellation when enabled — applied
	// after the fold, which per tuple equals the serial engine's
	// strengthen-then-fold-then-cancel pipeline).
	for i := 0; i < sh.n; i++ {
		if destDel[i].Empty() && destAdd[i].Empty() {
			continue
		}
		dd, da := sh.dtDel[i], sh.dtAdd[i]
		di, ai := destDel[i], destAdd[i]
		folded := di.Len() + ai.Len()
		err := m.locks.WithWrite([]string{dd.Name(), da.Name()}, func() error {
			mergeDelta(dd, da, di, ai, v.StrongMinimal)
			return nil
		})
		if err != nil {
			return err
		}
		if sm := sh.met[i]; sm != nil {
			sm.foldTuples.Add(int64(folded))
		}
	}
	// Worker durations land in the per-shard histogram from the
	// coordinator, keeping the obs write single-threaded per family.
	for _, r := range results {
		if r.shard >= 0 {
			sh.met[r.shard].propagateShardNs.Observe(int64(r.dur))
		}
	}
	return nil
}

func tupleLen(b *bag.Bag) int64 {
	if b == nil {
		return 0
	}
	return int64(b.Len())
}

// evalShard runs one worker's unit: evaluate the view's per-shard
// DEL/ADD pair against the shard's slice of logs and mirrors, under
// the shard's read locks. It only reads shared state and writes only
// its own result.
func (m *Manager) evalShard(v *View, shard int, src shardSource, lockNames []string) shardDelta {
	// Label the worker's whole unit so CPU profiles attribute per-shard
	// propagate work to (view, shard, phase). Accounting is nil here:
	// workers run concurrently, so the process-global allocation delta
	// belongs to the coordinator's propagate region, not to any one
	// worker.
	defer obs.StartRegion(nil, v.Name, shardID(shard), obs.PhasePropagate).End()
	start := time.Now()
	var d, a *bag.Bag
	var evalDur time.Duration
	var stats algebra.Stats
	compiled := false
	err := m.locks.WithRead(lockNames, func() error {
		if cd := v.cd; cd != nil && cd.shard != nil {
			// Compiled path: the joins probe the indexes this shard's
			// mirror bags own (each shard is evaluated by at most one
			// worker at a time, under the shard's locks).
			evalStart := time.Now()
			outs, st, err := cd.shard.Eval(cd.shardSt[shard], src)
			evalDur = time.Since(evalStart)
			if err != nil {
				return err
			}
			d, a, stats, compiled = outs[0], outs[1], st, true
			return nil
		}
		ev := algebra.NewEvaluator(src)
		var evErr error
		if d, evErr = ev.Eval(v.shDel); evErr != nil {
			return evErr
		}
		a, evErr = ev.Eval(v.shAdd)
		return evErr
	})
	return shardDelta{shard: shard, del: d, add: a, dur: time.Since(start), err: err,
		compiled: compiled, evalDur: evalDur, stats: stats}
}

// clearLogShard empties both log slices of (base, shard) under the
// shard's write lock.
func (m *Manager) clearLogShard(v *View, b string, i int) {
	sh := v.sh
	dl, il := sh.logDel[b][i], sh.logIns[b][i]
	_ = m.locks.WithWrite([]string{dl.Name(), il.Name()}, func() error {
		dl.Clear()
		il.Clear()
		return nil
	})
}

// applyDiffShardsLocked is partial_refresh_C's apply over sharded
// differential tables: each diff shard is applied to MV in turn (the
// caller clears them afterwards, see clearDiffTables). Diff shards are
// value-disjoint (routed by view-value hash), so the sequential
// per-shard apply equals the merged apply exactly. The Locked suffix is
// a contract dvmlint enforces: the caller must hold the MV write lock.
func (m *Manager) applyDiffShardsLocked(v *View) error {
	sh := v.sh
	for i := 0; i < sh.n; i++ {
		dd, da := sh.dtDel[i], sh.dtAdd[i]
		if dd.Len() == 0 && da.Len() == 0 {
			continue
		}
		err := m.locks.WithRead([]string{dd.Name(), da.Name()}, func() error {
			return m.applyToMVLocked(v, dd.Data(), da.Data())
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// clearLogShards wipes every log slice of a sharded view (the
// recompute path discards auxiliary state).
func (m *Manager) clearLogShards(v *View) {
	for _, b := range v.bases {
		for i := 0; i < v.sh.n; i++ {
			m.clearLogShard(v, b, i)
		}
	}
}

// canonicalLogChangeSet builds a change set over the view's CANONICAL
// log names. The resulting expressions have no backing tables: they are
// only ever evaluated through a shardSource, which resolves each
// canonical name to one shard's slice (or to the merged window in
// fallback mode).
func (m *Manager) canonicalLogChangeSet(v *View) delta.ChangeSet {
	cs := delta.ChangeSet{}
	for _, b := range v.bases {
		tb, _ := m.db.Table(b)
		cs[b] = struct {
			Deleted  algebra.Expr
			Inserted algebra.Expr
		}{
			Deleted:  algebra.NewBase(v.logDel[b], tb.Schema()),
			Inserted: algebra.NewBase(v.logIns[b], tb.Schema()),
		}
	}
	return cs
}

// compileShardQueries builds the per-shard DEL/ADD pair evaluated by
// propagate workers. Unlike blDel/blAdd it is NEVER strengthened: the
// strong-minimality cancellation must see the whole fold, so it runs
// per destination diff shard after routing (per tuple that equals the
// serial strengthen-then-fold-then-cancel pipeline; see
// foldLogSharded).
func (m *Manager) compileShardQueries(v *View) error {
	d, a, err := delta.PostUpdate(m.canonicalLogChangeSet(v), v.Def)
	if err != nil {
		return err
	}
	v.shDel, v.shAdd = algebra.OptimizePair(d, a)
	return nil
}

// shardUnionExpr builds the merged view of a shard group as a ⊎ chain
// over its member tables.
func shardUnionExpr(ts []*storage.Table) algebra.Expr {
	var out algebra.Expr
	for _, t := range ts {
		e := algebra.NewBase(t.Name(), t.Schema())
		if out == nil {
			out = e
			continue
		}
		u, err := algebra.NewUnionAll(out, e)
		if err != nil {
			panic(fmt.Sprintf("core: shard union: %v", err))
		}
		out = u
	}
	return out
}

// CheckShardInvariant verifies the sharded representation invariants
// for one view: every log/diff/mirror slice holds exactly the tuples
// its hash owns, and each mirror group sums to its base table. Tests
// call it alongside CheckInvariant.
func (m *Manager) CheckShardInvariant(name string) error {
	v, err := m.View(name)
	if err != nil {
		return err
	}
	if v.sh == nil {
		return nil
	}
	sh := v.sh
	checkRouted := func(what string, ts []*storage.Table, keyCol int) error {
		for i, t := range ts {
			var bad error
			t.Data().Each(func(tu schema.Tuple, _ int) {
				if bad == nil && bag.ShardOf(tu, keyCol, sh.n) != i {
					bad = fmt.Errorf("core: view %q: %s shard %d holds a tuple owned by shard %d",
						name, what, i, bag.ShardOf(tu, keyCol, sh.n))
				}
			})
			if bad != nil {
				return bad
			}
		}
		return nil
	}
	for _, b := range v.bases {
		kc := sh.shardKey(b)
		if err := checkRouted("▼"+b, sh.logDel[b], kc); err != nil {
			return err
		}
		if err := checkRouted("▲"+b, sh.logIns[b], kc); err != nil {
			return err
		}
		if g, ok := sh.mirrors[b]; ok {
			if err := checkRouted("mirror "+b, g.tables, g.keyCol); err != nil {
				return err
			}
			base, err := m.db.Bag(b)
			if err != nil {
				return err
			}
			if !mergeTables(g.tables).Equal(base) {
				return fmt.Errorf("core: view %q: Σ mirror shards ≠ %s", name, b)
			}
		}
	}
	if err := checkRouted("∇MV", sh.dtDel, sh.viewKey); err != nil {
		return err
	}
	return checkRouted("△MV", sh.dtAdd, sh.viewKey)
}
