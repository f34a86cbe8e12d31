package bag

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"dvm/internal/schema"
)

// indexed is Join.Indexed into a new bag.
func indexed(j *Join, probe *Bag, probePos []int, ix *Index, sub *Bag, buildLeft bool, held ...*Bag) (*Bag, int) {
	out := New()
	return out, j.Indexed(out, probe, probePos, ix, sub, buildLeft, held)
}

// hash is Join.Hash into a new bag.
func hash(j *Join, l *Bag, lpos []int, r *Bag, rpos []int, held ...*Bag) (out *Bag, probed, built int) {
	out = New()
	probed, built = j.Hash(out, l, lpos, r, rpos, held)
	return out, probed, built
}

// TestIndexedRefillsItsOutput: a join evaluated again and again into one
// bag, cleared in between, answers what a join into a new bag does, and
// a refill of the same size keeps the buckets Clear kept: it allocates
// the output's tuples and keys, where a new bag also grows its map from
// empty — projected or not.
func TestIndexedRefillsItsOutput(t *testing.T) {
	probe, build := New(), New()
	for i := 0; i < 500; i++ {
		probe.Add(schema.Row(i%50, i), 1)
		build.Add(schema.Row(i%50, -i), 1)
	}
	ix := NewIndex(build, []int{0})
	even := func(tu schema.Tuple) bool { return tu[1].AsInt()%2 == 0 }
	for _, j := range []*Join{{Left: even}, {Left: even, Project: []int{0, 1}}} {
		out := New()
		for round := 0; round < 3; round++ {
			out.Clear()
			j.Indexed(out, probe, []int{0}, ix, nil, false, nil)
		}
		want, _ := indexed(j, probe, []int{0}, ix, nil, false)
		if !out.Equal(want) {
			t.Fatalf("project %v: a refilled join %v, a new one %v", j.Project, out, want)
		}
		refill, _ := allocated(func() {
			out.Clear()
			j.Indexed(out, probe, []int{0}, ix, nil, false, nil)
		})
		fresh, _ := allocated(func() { keptMap, _ = indexed(j, probe, []int{0}, ix, nil, false) })
		t.Logf("project %v: %d output rows, refilled with %d B, into a new bag with %d B", j.Project, out.Distinct(), refill, fresh)
		if refill >= fresh*3/4 {
			t.Errorf("project %v: a refill allocates %d B, a join into a new bag %d B: the refill does not keep its buckets", j.Project, refill, fresh)
		}
	}
}

// conjunct is one conjunct of a join predicate over L(k, x) × R(k, y):
// side 0 reads only L's column col, side 1 only R's, side 2 reads the
// whole concatenated row (and ignores col).
type conjunct struct {
	side, col int
	val       func(schema.Value) bool
	row       func(schema.Tuple) bool
}

// onRow is the conjunct over the concatenated row, whatever its side.
func (c conjunct) onRow(lw int) func(schema.Tuple) bool {
	switch c.side {
	case 0:
		return func(t schema.Tuple) bool { return c.val(t[c.col]) }
	case 1:
		return func(t schema.Tuple) bool { return c.val(t[lw+c.col]) }
	}
	return c.row
}

func allOf(fs []func(schema.Tuple) bool) func(schema.Tuple) bool {
	if len(fs) == 0 {
		return nil
	}
	return func(t schema.Tuple) bool {
		for _, f := range fs {
			if !f(t) {
				return false
			}
		}
		return true
	}
}

// joinOperand draws a bag of (k, v) rows over a tiny domain: repeated
// rows, multiplicities above one, NULLs in both columns, and keys that
// are INT in one row and the equal FLOAT in another (they share a key
// encoding, so they must meet in the index).
func joinOperand(r *rand.Rand, n int) *Bag {
	val := func() any {
		switch v := r.Intn(4); r.Intn(6) {
		case 0:
			return nil
		case 1:
			return float64(v)
		default:
			return v
		}
	}
	b := New()
	for i := 0; i < n; i++ {
		b.Add(row(val(), val()), 1+r.Intn(3))
	}
	return b
}

// TestJoinKernelMatchesOracle holds the kernel to the nested-loop join:
// for random operands, every way of handing a conjunction's one-sided
// conjuncts to Left/Right or leaving them in Cross, with and without a
// projection (one that merges distinct join rows included, and one to
// no column), the indexed join in both orientations and the throw-away
// hash join — over the operands and over equal bags Build made, whose
// output it carves from slabs — all equal
// Project(ProductSelect(l, r, pred)), and none examines more bucket
// entries than JoinIndexed does with the predicate unsplit.
func TestJoinKernelMatchesOracle(t *testing.T) {
	const lw = 2
	conjuncts := []conjunct{
		{side: 0, col: 1, val: func(v schema.Value) bool { return !v.IsNull() }},
		{side: 0, col: 1, val: func(v schema.Value) bool { return v.Compare(schema.Int(3)) < 0 }},
		{side: 1, col: 1, val: func(v schema.Value) bool { return v.Compare(schema.Int(1)) != 0 }},
		{side: 1, col: 0, val: func(v schema.Value) bool { return v.Compare(schema.Int(0)) >= 0 }},
		{side: 2, row: func(t schema.Tuple) bool { return t[0].Equal(t[lw]) }},
		{side: 2, row: func(t schema.Tuple) bool { return t[1].Compare(t[lw+1]) <= 0 || t[1].IsNull() }},
	}
	var full []func(schema.Tuple) bool
	oneSided := 0
	for _, c := range conjuncts {
		full = append(full, c.onRow(lw))
		if c.side < 2 {
			oneSided++
		}
	}
	pred := allOf(full)
	projections := [][]int{nil, {0, 1, 3}, {1}, {3, 3, 0}, {}}

	r := rand.New(rand.NewSource(18))
	for trial := 0; trial < 60; trial++ {
		l, rt := joinOperand(r, r.Intn(14)), joinOperand(r, r.Intn(14))
		if trial%10 == 0 {
			l = New() // an empty side, each way round
		} else if trial%10 == 1 {
			rt = New()
		}
		joined := ProductSelect(l, rt, pred)
		bl, br := rebuilt(t, l), rebuilt(t, rt) // Hash carves its output over these
		ixL, ixR := NewIndex(l, []int{0}), NewIndex(rt, []int{0})
		_, unsplitL := JoinIndexed(rt, []int{0}, ixL, true, pred)
		_, unsplitR := JoinIndexed(l, []int{0}, ixR, false, pred)

		for _, proj := range projections {
			want := joined
			if proj != nil {
				want = Project(joined, func(tu schema.Tuple) schema.Tuple { return tu.Project(proj) })
			}
			// Bit i of split set: the i-th one-sided conjunct goes to its
			// side's filter; clear: it stays in Cross.
			for split := 0; split < 1<<oneSided; split++ {
				var left, right, cross []func(schema.Tuple) bool
				bit := 0
				for _, c := range conjuncts {
					pushed := c.side < 2 && split&(1<<bit) != 0
					if c.side < 2 {
						bit++
					}
					switch {
					case pushed && c.side == 0:
						c := c
						left = append(left, func(tu schema.Tuple) bool { return c.val(tu[c.col]) })
					case pushed:
						c := c
						right = append(right, func(tu schema.Tuple) bool { return c.val(tu[c.col]) })
					default:
						cross = append(cross, c.onRow(lw))
					}
				}
				j := &Join{Left: allOf(left), Right: allOf(right), Cross: allOf(cross), Project: proj}
				name := fmt.Sprintf("trial %d proj %v split %b", trial, proj, split)

				got, probed := indexed(j, rt, []int{0}, ixL, nil, true)
				if !got.Equal(want) {
					t.Fatalf("%s, build left: got %v want %v", name, got, want)
				}
				if probed > unsplitL {
					t.Fatalf("%s, build left: probed %d > unsplit %d", name, probed, unsplitL)
				}
				got, probed = indexed(j, l, []int{0}, ixR, nil, false)
				if !got.Equal(want) {
					t.Fatalf("%s, build right: got %v want %v", name, got, want)
				}
				if probed > unsplitR {
					t.Fatalf("%s, build right: probed %d > unsplit %d", name, probed, unsplitR)
				}
				got, probed, built := hash(j, l, []int{0}, rt, []int{0})
				if !got.Equal(want) {
					t.Fatalf("%s, hash: got %v want %v", name, got, want)
				}
				if probed > max(unsplitL, unsplitR) || built != min(l.Distinct(), rt.Distinct()) {
					t.Fatalf("%s, hash: probed %d built %d", name, probed, built)
				}
				if got, _, _ = hash(j, bl, []int{0}, br, []int{0}); !got.Equal(want) {
					t.Fatalf("%s, hash over Build's bags: got %v want %v", name, got, want)
				}
				if got, _, _ = hash(j, bl, nil, br, nil); !got.Equal(want) {
					t.Fatalf("%s, keyless hash over Build's bags: got %v want %v", name, got, want)
				}
				own, _ := l.IndexOn([]int{0})
				if got, _ = indexed(j, rt, []int{0}, own, nil, true); !got.Equal(want) {
					t.Fatalf("%s, IndexOn: got %v want %v", name, got, want)
				}
				// No column to key on: every pair is a candidate.
				if got, _, _ = hash(j, l, nil, rt, nil); !got.Equal(want) {
					t.Fatalf("%s, keyless hash: got %v want %v", name, got, want)
				}
			}
		}
	}
}

// checkJoinSub holds the kernel reading its indexed side b as
// b ∸ σ_keep(sub) to the same kernel over that bag materialized —
// Monus(b, Select(sub, keep)), or b itself when sub is nil — for the
// join of probe with b on column 0, through b's own index, each way
// round, with and without a projection (one of no columns among them)
// and with a filter on each side. The same joins with held as holders,
// through b's index and through Hash, must give the same bags, and hold
// every output tuple a holder holds as that holder's (checkHeld). It
// returns the first difference, or "".
func checkJoinSub(probe, b, sub *Bag, keep func(schema.Tuple) bool, held []*Bag) string {
	src := b
	if sub != nil {
		sel := sub
		if keep != nil {
			sel = Select(sub, keep)
		}
		src = Monus(b, sel)
	}
	pos := []int{0}
	own, _ := b.IndexOn(pos)
	oracle := newIndex(src, pos, false)
	for _, proj := range [][]int{nil, {0, 1, 3}, {3, 0}, {}} {
		for _, buildLeft := range []bool{false, true} {
			j := &Join{
				Left:    func(tu schema.Tuple) bool { return !tu[1].IsNull() },
				Right:   func(tu schema.Tuple) bool { return tu[1].Compare(schema.Int(3)) < 0 },
				Keep:    keep,
				Project: proj,
			}
			got, _ := indexed(j, probe, pos, own, sub, buildLeft)
			want, _ := indexed(j, probe, pos, oracle, nil, buildLeft)
			if !got.Equal(want) {
				return fmt.Sprintf("proj %v, build left %v: reading b ∸ σ(sub) gives %v, the materialized %v gives %v",
					proj, buildLeft, got, src, want)
			}
			l, r := probe, src
			if buildLeft {
				l, r = r, l
			}
			hashed, _, _ := hash(&Join{Left: j.Left, Right: j.Right, Project: proj}, l, pos, r, pos, held...)
			got, _ = indexed(j, probe, pos, own, sub, buildLeft, held...)
			for path, got := range map[string]*Bag{"Indexed": got, "Hash": hashed} {
				if !got.Equal(want) {
					return fmt.Sprintf("proj %v, build left %v: %s with holders gives %v, without %v", proj, buildLeft, path, got, want)
				}
				if msg := checkHeld(got, held); msg != "" {
					return fmt.Sprintf("proj %v, build left %v: %s: %s", proj, buildLeft, path, msg)
				}
			}
		}
	}
	return ""
}

// checkHeld reports the first tuple of out that a bag of held holds
// under another pointer than the first such bag's, or "".
func checkHeld(out *Bag, held []*Bag) string {
	msg := ""
	out.each(func(h uint32, e entry) {
		t := out.tupleAt(e.p)
		for i, b := range held {
			if b.Empty() || b.arity != out.arity {
				continue
			}
			if eh := b.get(h, t); eh.count > 0 {
				if eh.p != e.p && msg == "" {
					msg = fmt.Sprintf("output tuple %v is not holder %d's", t, i)
				}
				return
			}
		}
	})
	return msg
}

// joinHolders returns holders drawn from other for checkJoinSub's joins
// of probe rows (k, c): other itself, and other's tuples (a, w) as rows
// of every shape those joins emit, each way round — (a, c, a, w),
// (a, w, a, c), (a, c, w), (a, w, c), (w, a), (c, a) — and as the one
// tuple of no columns, each with the count other gives it; then an
// empty bag.
func joinHolders(other *Bag, c schema.Value) []*Bag {
	var shaped [4]*Bag
	for i := range shaped {
		shaped[i] = New()
	}
	other.Each(func(tu schema.Tuple, n int) {
		a, w := tu[0], tu[1]
		shaped[0].Add(schema.Tuple{a, c, a, w}, n).Add(schema.Tuple{a, w, a, c}, n)
		shaped[1].Add(schema.Tuple{a, c, w}, n).Add(schema.Tuple{a, w, c}, n)
		shaped[2].Add(schema.Tuple{w, a}, n).Add(schema.Tuple{c, a}, n)
		shaped[3].Add(schema.Tuple{}, n)
	})
	return append([]*Bag{other}, append(shaped[:], New())...)
}

// TestPropJoinReadsThroughSubtrahend: the kernel reading its indexed
// side as B ∸ σ_keep(X) — one lookup in X per bucket entry — is the
// kernel over B ∸ σ_keep(X) materialized, for any bags: X nil, empty,
// overlapping B below and beyond its counts, holding rows B lacks, and
// (through joinOperand) NULLs and an INT and a FLOAT that share a key;
// keep nil or not — one that tells such an INT from its FLOAT included,
// so keep must read X's tuple, not B's.
func TestPropJoinReadsThroughSubtrahend(t *testing.T) {
	keeps := []func(schema.Tuple) bool{
		nil,
		func(tu schema.Tuple) bool { return !tu[1].IsNull() },
		func(tu schema.Tuple) bool { return tu[0].Type() != schema.TFloat },
	}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		probe, b := joinOperand(r, r.Intn(10)), joinOperand(r, r.Intn(14))
		var sub *Bag
		switch r.Intn(4) {
		case 0: // nil: the side is B
		case 1:
			sub = New()
		default:
			sub = joinOperand(r, r.Intn(6))
			b.Each(func(tu schema.Tuple, n int) {
				if r.Intn(2) == 0 {
					sub.Add(tu, 1+r.Intn(n+1))
				}
			})
		}
		// Holders of every output row, unprojected, each way round, of
		// b's rows and of the tuple of no columns, under pointers of
		// their own.
		held := []*Bag{Product(probe, b), Product(b, probe), b, Of(schema.Tuple{})}
		for _, keep := range keeps {
			if msg := checkJoinSub(probe, b, sub, keep, held); msg != "" {
				t.Logf("seed %d: %s", seed, msg)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, qcfg); err != nil {
		t.Error(err)
	}
}

// TestJoinKernelFiltersBeforeAllocating pins the point of the kernel:
// what a join allocates follows its survivors, not its candidates. A
// join whose candidates are all rejected — by the probe side's filter,
// the indexed side's, or the cross predicate — allocates the same small
// constant for 10 candidate pairs as for 1000, and k survivors cost a
// bounded number of allocations each.
func TestJoinKernelFiltersBeforeAllocating(t *testing.T) {
	operands := func(n int) (*Bag, *Index) {
		probe, build := New(), New()
		for i := 0; i < n; i++ {
			probe.Add(row(i, "p"), 1)
			build.Add(row(i, "b"), 1)
		}
		return probe, newIndex(build, []int{0}, false)
	}
	never := func(schema.Tuple) bool { return false }
	rejects := map[string]*Join{
		"probe side":       {Left: never},
		"build side":       {Right: never},
		"cross":            {Cross: never},
		"cross, projected": {Cross: never, Project: []int{1, 3}},
	}
	for name, j := range rejects {
		allocs := func(n int) float64 {
			probe, ix := operands(n)
			return testing.AllocsPerRun(20, func() {
				if out, probed := indexed(j, probe, []int{0}, ix, nil, false); !out.Empty() || (probed != n && j.Left == nil) {
					t.Fatalf("%s: out %v probed %d", name, out, probed)
				}
			})
		}
		small, large := allocs(10), allocs(1000)
		if small != large || large > 4 {
			t.Errorf("rejecting in the %s filter: %v allocations for 10 candidates, %v for 1000; want one small constant", name, small, large)
		}
	}

	// k of 1000 candidates survive: O(k), with and without a projection.
	for _, proj := range [][]int{nil, {1, 0, 3}} {
		probe, ix := operands(1000)
		for _, k := range []int{10, 100} {
			k := k
			j := &Join{Cross: func(tu schema.Tuple) bool { return tu[0].Compare(schema.Int(int64(k))) < 0 }, Project: proj}
			got := testing.AllocsPerRun(5, func() {
				if out, _ := indexed(j, probe, []int{0}, ix, nil, false); out.Len() != k {
					t.Fatalf("%d survivors, want %d", out.Len(), k)
				}
			})
			// A survivor is a tuple and a key; the rest is the output map
			// growing.
			if got > float64(3*k+8) {
				t.Errorf("proj %v: %d survivors of 1000 candidates cost %v allocations", proj, k, got)
			}
		}
	}

	// Every candidate survives (the bypass case): still one tuple and one
	// key per output row, no extra copy.
	probe, ix := operands(1000)
	got := testing.AllocsPerRun(5, func() { indexed(&Join{}, probe, []int{0}, ix, nil, true) })
	if perRow := got / 1000; perRow > 2.2 {
		t.Errorf("all-survive join allocates %.2f per output row, want 2 plus map growth", perRow)
	}
}
