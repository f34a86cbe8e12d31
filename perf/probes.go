package main

import (
	"bytes"
	"errors"
	"runtime"

	"dvm/internal/algebra"
	"dvm/internal/bag"
	"dvm/internal/delta"
	"dvm/internal/schema"
	"dvm/internal/sharedlog"
	"dvm/internal/sql"
	"dvm/internal/storage"
	"dvm/internal/txn"
)

// The P probes call each layer's public functions directly, on the
// workload's own tuples and statements, after the last cycle of a traced
// run. They are not a second benchmark: each is one number per layer that
// says where an end-to-end change should have come from (README.md has
// the layer → end-to-end table). Every probe runs as a span under the
// trace's probe root; a repeated probe reports its median.

const (
	probeReps  = 5   // repetitions of a whole-batch probe
	probeTxns  = 256 // transactions the txn and sharedlog probes replay
	probeStmts = 200 // parses per statement class
)

// probes fills the P metrics and returns the parse cost in ns of each SQL
// statement class (for sql.parse_share). The first error any probed call
// returns fails the run.
func (d *driver) probes(pl map[string]float64, root int) (map[class]float64, error) {
	r := d.r
	var perr error
	check := func(err error) {
		if perr == nil {
			perr = err
		}
	}
	// med runs f reps times as spans and returns the median wall in ns.
	med := func(name string, reps int, f func()) float64 {
		ns := make([]int64, reps)
		for i := range ns {
			ns[i] = r.probe(root, name, f)
		}
		return median(ns)
	}
	// each runs f once as a span around n inner iterations: ns per iteration.
	each := func(name string, n int, f func(i int)) float64 {
		return float64(r.probe(root, name, func() {
			for i := 0; i < n; i++ {
				f(i)
			}
		})) / float64(n)
	}

	// The workload's own tuples: probeTuples live sales rows spread over
	// the customers, and fresh rows for the same customers.
	sales, _ := d.db.Table("sales")
	sch := sales.Schema()
	stride := max(len(d.g.rows)/probeTuples, 1)
	var live, fresh []schema.Tuple
	var rows []row
	for i := 0; i < len(d.g.rows) && len(live) < probeTuples; i += stride {
		rw := d.g.rows[i]
		rows = append(rows, rw)
		live = append(live, rw.tuple())
		rw.item = (rw.item + 1) % items
		fresh = append(fresh, rw.tuple())
	}
	n := float64(len(live))

	// --- schema ---
	var key []byte
	keyBytes := 0
	pl["schema.key_ns_per_tuple"] = med("schema.key", probeReps, func() {
		keyBytes = 0
		for _, tu := range live {
			key = tu.AppendKey(key[:0])
			keyBytes += len(key)
		}
	}) / n
	pl["schema.key_bytes_per_tuple"] = float64(keyBytes) / n
	pl["schema.validate_ns_per_tuple"] = med("schema.validate", probeReps, func() {
		for _, tu := range live {
			check(sch.Validate(tu))
		}
	}) / n

	// --- bag ---
	var b *bag.Bag
	pl["bag.add_ns_per_tuple"] = med("bag.add", probeReps, func() {
		b = bag.New()
		for _, tu := range live {
			b.Add(tu, 1)
		}
	}) / n
	pl["bag.clone_ns_per_tuple"] = med("bag.clone", probeReps, func() { _ = b.Clone() }) / n
	var ix *bag.Index
	pl["bag.index_build_ns_per_tuple"] = med("bag.index_build", probeReps, func() {
		ix = bag.NewIndex(b, []int{0})
	}) / float64(b.Distinct())
	// Index.Sync catches up through the bag's mutation journal, a window of
	// a quarter of the bag's rows that resets when full: swap 1/64 of the
	// rows per repetition (live ↔ fresh, alternating) so all repetitions
	// fit in one window, and time only the Sync.
	changes := len(live) / 64
	syncNs := make([]int64, probeReps)
	for rep := range syncNs {
		from, to := live, fresh
		if rep%2 == 1 {
			from, to = fresh, live
		}
		for i := 0; i < changes; i++ {
			b.Remove(from[i], 1)
			b.Add(to[i], 1)
		}
		applied := 0
		ns := r.probe(root, "bag.index_sync", func() { applied, _ = ix.Sync(b) })
		if applied == 0 {
			check(errors.New("bag.Index.Sync applied no journal entries"))
			applied = 1
		}
		syncNs[rep] = ns / int64(applied)
	}
	pl["bag.index_sync_ns_per_change"] = median(syncNs)
	custTb, _ := d.db.Table("customer")
	custIx := bag.NewIndex(custTb.Data().Clone(), []int{0})
	probed := 0
	joinNs := med("bag.join_probe", probeReps, func() {
		_, probed = bag.JoinIndexed(b, []int{0}, custIx, true, func(schema.Tuple) bool { return true })
	})
	pl["bag.join_probe_ns_per_tuple"] = joinNs / float64(probed)
	delBag, addBag := bag.New(), bag.New()
	for i := 0; i < changes; i++ {
		delBag.Add(live[i], 1)
		addBag.Add(fresh[i], 1)
	}
	pl["bag.monus_union_ns_per_tuple"] = med("bag.monus_union", probeReps, func() {
		_ = bag.UnionAll(bag.Monus(b, delBag), addBag)
	}) / (n + float64(2*changes))
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	held := bag.New()
	for _, tu := range live {
		held.Add(tu.Clone(), 1)
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	pl["bag.bytes_per_tuple"] = float64(m1.HeapAlloc-m0.HeapAlloc) / n
	runtime.KeepAlive(held)

	// --- txn ---
	txns := make([]txn.Txn, probeTxns)
	for i := range txns {
		del, ins := bag.New(), bag.New()
		for k := 0; k < d.sp.rows; k++ {
			j := (i*d.sp.rows + k) % len(live)
			del.Add(live[j], 1)
			ins.Add(fresh[j], 1)
		}
		txns[i] = txn.Txn{"sales": {Delete: del, Insert: ins}}
	}
	pl["txn.normalize_us_per_txn"] = each("txn.normalize", len(txns), func(i int) {
		_, err := txns[i].Normalize(d.db)
		check(err)
	}) / 1e3
	scratch := d.db.Snapshot() // Txn.Apply bypasses makesafe: never on the live database
	pl["txn.apply_us_per_txn"] = each("txn.apply", 8, func(i int) {
		check(txns[i].Apply(scratch))
	}) / 1e3
	mv := []string{d.m.Views()[0].MVTable()}
	nop := func() error { return nil }
	pl["txn.lock_write_ns"] = each("txn.lock_write", 20000, func(int) { _ = d.m.Locks().WithWrite(mv, nop) })
	pl["txn.lock_read_ns"] = each("txn.lock_read", 20000, func(int) { _ = d.m.Locks().WithRead(mv, nop) })

	// --- algebra: the first view's definition through both evaluators ---
	def := d.m.Views()[0].Def
	var prog *algebra.Program
	pl["algebra.compile_ms"] = med("algebra.compile", probeReps, func() {
		var err error
		prog, err = algebra.Compile(def)
		check(err)
	}) / 1e6
	pl["algebra.eval_compiled_ms"] = med("algebra.eval_compiled", 3, func() {
		_, _, err := prog.Eval(nil, d.db)
		check(err)
	}) / 1e6
	pl["algebra.eval_interp_ms"] = med("algebra.eval_interp", 3, func() {
		_, err := algebra.Eval(def, d.db)
		check(err)
	}) / 1e6
	slice, err := algebra.NewSelect(custPred(d.g.sliceCust(0)), def)
	if err != nil {
		return nil, err
	}
	pl["algebra.optimize_us"] = med("algebra.optimize", 50, func() { _ = algebra.Optimize(slice) }) / 1e3

	// --- delta: differentiate the view against symbolic log tables ---
	cs := delta.ChangeSet{}
	for _, base := range algebra.BaseNames(def) {
		tb, _ := d.db.Table(base)
		ch := cs[base]
		ch.Deleted = algebra.NewBase("probe_del_"+base, tb.Schema())
		ch.Inserted = algebra.NewBase("probe_ins_"+base, tb.Schema())
		cs[base] = ch
	}
	var dDel, dAdd algebra.Expr
	pl["delta.post_update_us"] = med("delta.post_update", 20, func() {
		var err error
		dDel, dAdd, err = delta.PostUpdate(cs, def)
		check(err)
	}) / 1e3
	pl["delta.expr_nodes"] = float64(exprNodes(dDel) + exprNodes(dAdd))

	// --- sql: parse and compile the workload's statement shapes ---
	point := pointSQL(d.g.sliceCust(0))
	parse := map[class]float64{}
	for _, st := range []struct {
		c    class
		text string
	}{
		{clsSQLInsert, insertSQL(rows[:3])},
		{clsSQLDelete, deleteSQL(rows[0])},
		{clsSQLPoint, point},
		{clsSQLPropagate, "PROPAGATE hv"},
	} {
		parse[st.c] = med("sql.parse."+spanName[st.c][len("sql.exec."):], probeStmts, func() {
			_, err := sql.Parse(st.text)
			check(err)
		})
	}
	parse[clsSQLAgg] = parse[clsSQLPoint]
	parse[clsSQLPartial] = parse[clsSQLPropagate]
	parse[clsSQLRefresh] = parse[clsSQLPropagate]
	pl["sql.parse_us_insert"] = parse[clsSQLInsert] / 1e3
	pl["sql.parse_us_delete"] = parse[clsSQLDelete] / 1e3
	pl["sql.parse_us_select"] = parse[clsSQLPoint] / 1e3
	pl["sql.parse_us_maint"] = parse[clsSQLPropagate] / 1e3
	st, err := sql.Parse(point)
	if err != nil {
		return nil, err
	}
	resolve := func(name string) (algebra.Expr, error) { // "hv" reads the first view's MV, like Engine's resolver
		if name == "hv" {
			name = mv[0]
		}
		tb, err := d.db.Table(name)
		if err != nil {
			return nil, err
		}
		return algebra.NewBase(name, tb.Schema()), nil
	}
	pl["sql.compile_select_us"] = med("sql.compile_select", probeStmts, func() {
		_, err := sql.CompileSelect(st.(*sql.SelectStmt), resolve)
		check(err)
	}) / 1e3

	// --- storage: snapshot round trip of the whole database ---
	tuples := 0
	for _, name := range d.db.Names() {
		tb, _ := d.db.Table(name)
		tuples += tb.Len()
	}
	var buf bytes.Buffer
	saveNs := med("storage.db_save", 3, func() {
		buf.Reset()
		check(d.db.Save(&buf))
	})
	loadNs := med("storage.db_load", 3, func() {
		_, err := storage.Load(bytes.NewReader(buf.Bytes()))
		check(err)
	})
	pl["storage.save_ns_per_tuple"] = saveNs / float64(tuples)
	pl["storage.load_ns_per_tuple"] = loadNs / float64(tuples)
	if !d.sp.sql { // sql_day reports its day-end SaveTo/LoadEngine instead
		pl["storage.save_ms"] = saveNs / 1e6
		pl["storage.load_ms"] = loadNs / 1e6
		pl["storage.snapshot_kib"] = float64(buf.Len()) / 1024
	}

	// --- sharedlog: the other log layout, same transactions ---
	var lg *sharedlog.Log
	pl["sharedlog.append_ns_per_tuple"] = med("sharedlog.append", probeReps, func() {
		lg = sharedlog.New("sales", sch)
		for _, t := range txns {
			u := t["sales"]
			lg.Append(u.Delete, u.Insert)
		}
	}) / float64(len(txns)*2*d.sp.rows)
	pl["sharedlog.merge_ms"] = med("sharedlog.merge", probeReps, func() {
		_, _, err := lg.Merge(lg.Tail(), lg.Head())
		check(err)
	}) / 1e6

	// --- obs ---
	families := 0
	pl["obs.snapshot_us"] = med("obs.snapshot", 20, func() {
		families = len(d.m.Obs().Snapshot().Families())
	}) / 1e3
	pl["obs.families"] = float64(families)
	return parse, perr
}

// parseShare is Σ parse time / Σ Exec time over the measured cycles of
// sql_day: each statement class's call count times its probed parse cost.
func (d *driver) parseShare(parse map[class]float64) float64 {
	var parseNs, execNs float64
	for c := clsSQLInsert; c <= clsSQLRefresh; c++ {
		parseNs += parse[c] * float64(len(d.r.calls[c]))
		execNs += float64(sum(d.r.calls[c]))
	}
	if execNs == 0 {
		return 0
	}
	return parseNs / execNs
}

// exprNodes counts the operators of an expression tree.
func exprNodes(e algebra.Expr) int {
	switch x := e.(type) {
	case *algebra.Select:
		return 1 + exprNodes(x.Child)
	case *algebra.Project:
		return 1 + exprNodes(x.Child)
	case *algebra.DupElim:
		return 1 + exprNodes(x.Child)
	case *algebra.UnionAll:
		return 1 + exprNodes(x.L) + exprNodes(x.R)
	case *algebra.Monus:
		return 1 + exprNodes(x.L) + exprNodes(x.R)
	case *algebra.Product:
		return 1 + exprNodes(x.L) + exprNodes(x.R)
	}
	return 1 // Base, Literal
}
