package storage

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"testing"

	"dvm/internal/bag"
	"dvm/internal/schema"
)

func buildRandomDB(t *testing.T, seed int64) *Database {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	db := NewDatabase()
	schemas := []*schema.Schema{
		schema.NewSchema(schema.Col("i", schema.TInt), schema.Col("s", schema.TString)),
		schema.NewSchema(schema.Col("f", schema.TFloat), schema.Col("b", schema.TBool), schema.Col("n", schema.TInt)),
	}
	for i, sch := range schemas {
		kind := External
		if i%2 == 1 {
			kind = Internal
		}
		name := string(rune('A' + i))
		tb, err := db.Create(name, sch, kind)
		if err != nil {
			t.Fatal(err)
		}
		data := bag.New()
		for j, n := 0, r.Intn(50); j < n; j++ {
			tu := make(schema.Tuple, sch.Len())
			for k := 0; k < sch.Len(); k++ {
				switch sch.Column(k).Type {
				case schema.TInt:
					if r.Intn(10) == 0 {
						tu[k] = schema.Null()
					} else {
						tu[k] = schema.Int(int64(r.Intn(100) - 50))
					}
				case schema.TFloat:
					tu[k] = schema.Float(float64(r.Intn(1000)) / 7)
				case schema.TString:
					tu[k] = schema.Str(strings.Repeat("x", r.Intn(5)) + "|'\"")
				case schema.TBool:
					tu[k] = schema.Bool(r.Intn(2) == 0)
				}
			}
			data.Add(tu, 1+r.Intn(3))
		}
		tb.Replace(data)
	}
	return db
}

func TestSaveLoadRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		db := buildRandomDB(t, seed)
		var buf bytes.Buffer
		if err := db.Save(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := Load(&buf)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(got.Names()) != len(db.Names()) {
			t.Fatalf("table count mismatch: %v vs %v", got.Names(), db.Names())
		}
		for _, name := range db.Names() {
			orig, _ := db.Table(name)
			loaded, err := got.Table(name)
			if err != nil {
				t.Fatalf("seed %d: missing table %q", seed, name)
			}
			if loaded.Kind() != orig.Kind() {
				t.Fatalf("kind mismatch for %q", name)
			}
			if !loaded.Schema().Equal(orig.Schema()) {
				t.Fatalf("schema mismatch for %q: %s vs %s", name, loaded.Schema(), orig.Schema())
			}
			if !loaded.Data().Equal(orig.Data()) {
				t.Fatalf("data mismatch for %q:\n%v\nvs\n%v", name, loaded.Data(), orig.Data())
			}
		}
	}
}

func TestSaveLoadEmptyDatabase(t *testing.T) {
	var buf bytes.Buffer
	if err := NewDatabase().Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Names()) != 0 {
		t.Fatal("empty database grew tables")
	}
}

func TestLoadErrors(t *testing.T) {
	cases := map[string][]byte{
		"empty":     {},
		"bad magic": []byte("NOPE....."),
		"truncated": append([]byte("DVM1"), 0x02, 0x00, 0x00, 0x00),
	}
	for name, data := range cases {
		if _, err := Load(bytes.NewReader(data)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// Corrupt a valid snapshot mid-stream.
	db := buildRandomDB(t, 1)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if len(raw) > 40 {
		if _, err := Load(bytes.NewReader(raw[:len(raw)/2])); err == nil {
			t.Error("truncated snapshot accepted")
		}
	}
}

func TestSaveLoadPreservesValueEdgeCases(t *testing.T) {
	db := NewDatabase()
	sch := schema.NewSchema(schema.Col("v", schema.TFloat))
	tb, err := db.Create("t", sch, External)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []float64{0, -0.0, 1e300, -1e-300, 3.141592653589793} {
		if err := tb.Insert(schema.Row(f), 1); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	lt, _ := got.Table("t")
	if !lt.Data().Equal(tb.Data()) {
		t.Fatalf("float round trip failed:\n%v\nvs\n%v", lt.Data(), tb.Data())
	}
}

// u32 appends v little-endian, the snapshot's integer encoding.
func u32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// TestLoadBoundsHostileHeaders: a count in a snapshot header sizes an
// allocation or a loop, and the bytes are untrusted — a forged count is
// an error after a bounded allocation, not a 100 GB make. The forged
// streams are a few dozen bytes long (the wide schema's column list is
// 320 KiB); none may cost more than 4 MiB.
func TestLoadBoundsHostileHeaders(t *testing.T) {
	table := func(colCount uint32) []byte { // one table "t" up to its column list
		b := u32([]byte("DVM1"), 1)
		b = append(u32(b, 1), 't')
		b = append(b, byte(External))
		return u32(b, colCount)
	}
	oneIntCol := append(u32(table(1), 1), 'a', byte(schema.TInt))
	oneStrCol := append(u32(table(1), 1), 's', byte(schema.TString))
	// 65,535 unnamed INT columns, a forged row count, and a stream that
	// ends inside the first row: the row's slab is as wide as the schema
	// the stream spelled out, and no wider.
	wide := table(0xFFFF)
	for range 0xFFFF {
		wide = append(u32(wide, 0), byte(schema.TInt))
	}
	wide = append(u32(u32(wide, 0xFFFFFFFF), 1), tagInt, 1, 0, 0, 0, 0, 0, 0, 0)
	cases := map[string][]byte{
		"table count":    u32([]byte("DVM1"), 0xFFFFFFFF),
		"column count":   table(0xFFFFFFFF),
		"distinct count": u32(oneIntCol, 0xFFFFFFFF),
		"string length":  u32(u32([]byte("DVM1"), 1), 0xFFFFFFFF),
		// Lengths under the 16 MiB cap, which the stream does not back.
		"table name length":   u32(u32([]byte("DVM1"), 1), 1<<24),
		"string value length": u32(append(u32(u32(oneStrCol, 1), 1), tagString), 1<<24),
		"wide schema":         wide,
		"DVM2 magic":          u32([]byte("DVM2"), 0xFFFFFFFF),
	}
	for name, data := range cases {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		_, err := Load(bytes.NewReader(data))
		runtime.ReadMemStats(&m1)
		if err == nil {
			t.Errorf("forged %s accepted", name)
		}
		if name == "DVM2 magic" && (err == nil || !strings.Contains(err.Error(), "DVM2")) {
			t.Errorf("a DVM2 stream (the retired sharded format) failed without naming it: %v", err)
		}
		got := m1.TotalAlloc - m0.TotalAlloc
		t.Logf("forged %s: %d bytes allocated, %v", name, got, err)
		if got > 4<<20 {
			t.Errorf("forged %s (%d bytes of input): Load allocated %d bytes before failing", name, len(data), got)
		}
	}
}

// TestLoadRejectsDuplicateTuples: the distinctTuples header promises
// distinct tuples; a stream that repeats one would load as a bag whose
// re-Save differs from the bytes read. Nor does a tuple of multiplicity
// zero load: Save never writes one.
func TestLoadRejectsDuplicateTuples(t *testing.T) {
	b := u32([]byte("DVM1"), 1)
	b = append(u32(b, 1), 't')
	b = append(b, byte(External))
	b = append(u32(u32(b, 1), 1), 'a', byte(schema.TInt))
	zero := append(u32(u32(bytes.Clone(b), 1), 0), tagInt, 7, 0, 0, 0, 0, 0, 0, 0)
	b = u32(b, 2) // two "distinct" tuples, both [7]
	for i := 0; i < 2; i++ {
		b = append(u32(b, 1), tagInt, 7, 0, 0, 0, 0, 0, 0, 0)
	}
	if _, err := Load(bytes.NewReader(b)); err == nil || !strings.Contains(err.Error(), "duplicate tuple") {
		t.Fatalf("a repeated tuple loaded: %v", err)
	}
	if _, err := Load(bytes.NewReader(zero)); err == nil || !strings.Contains(err.Error(), "multiplicity 0") {
		t.Fatalf("a tuple of multiplicity 0 loaded: %v", err)
	}
}

// TestSaveLoadLongStrings: strings are read out of the bufio buffer when
// they fit it and through a second path when they do not; both sides of
// the buffer size, and the size itself, round-trip, and so do keys of
// up to 128 KiB among short ones. Neither path puts a
// string longer than maxInternLen into the intern table.
func TestSaveLoadLongStrings(t *testing.T) {
	in := &strTable{m: make(map[string]string)}
	long := []byte(strings.Repeat("x", maxInternLen+1))
	if got := in.str(long); got != string(long) || len(in.m) != 0 {
		t.Fatalf("a %d-byte string went through the intern table (%d entries)", len(long), len(in.m))
	}
	if got := in.str(long[:maxInternLen]); got != string(long[:maxInternLen]) || len(in.m) != 1 {
		t.Fatalf("a %d-byte string was not interned (%d entries)", maxInternLen, len(in.m))
	}

	db := NewDatabase()
	tb, err := db.Create("docs", schema.NewSchema(schema.Col("id", schema.TInt), schema.Col("body", schema.TString)), External)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range []int{0, 1, 4095, 4096, 4097, 10000, 1 << 17} {
		if err := tb.Insert(schema.Row(i, strings.Repeat(string(rune('a'+i)), n)), 1+i); err != nil {
			t.Fatal(err)
		}
	}
	saveLoad(t, db)
}

// TestLoadInternsShortStrings: a low-cardinality column of short strings
// is loaded as one string per distinct value, a column of long ones as
// one per row, and a column of more distinct short strings than the
// table holds as a 4 KiB chunk per few hundred rows. Counted in
// allocations, not timed.
func TestLoadInternsShortStrings(t *testing.T) {
	const rows = 4000
	loadMallocs := func(note func(i int) string) uint64 {
		db := NewDatabase()
		tb, err := db.Create("customer", schema.NewSchema(schema.Col("id", schema.TInt), schema.Col("note", schema.TString)), External)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			tb.Data().Add(schema.Row(i, note(i)), 1)
		}
		var buf bytes.Buffer
		if err := db.Save(&buf); err != nil {
			t.Fatal(err)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		got, err := Load(bytes.NewReader(buf.Bytes()))
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		gt, err := got.Table("customer")
		if err != nil {
			t.Fatal(err)
		}
		if !gt.Data().Equal(tb.Data()) {
			t.Fatal("the loaded table differs")
		}
		return m1.Mallocs - m0.Mallocs
	}
	scores := []string{"High", "Low", ""}
	short := loadMallocs(func(i int) string { return scores[i%len(scores)] })
	long := loadMallocs(func(i int) string { return strings.Repeat(scores[i%2][:1], maxInternLen+1) })
	distinct := loadMallocs(func(i int) string { return "cust-" + strconv.Itoa(i) })
	mixed := loadMallocs(func(i int) string {
		if i%2 == 0 {
			return "cust-" + strconv.Itoa(i)
		}
		return scores[i%len(scores)]
	})
	t.Logf("Load of %d rows: %d mallocs with 3 short notes, %d with 2 long ones, %d with distinct short ones, %d with distinct and repeated ones mixed",
		rows, short, long, distinct, mixed)
	// A row costs no allocation of its own (its values share a slab, and
	// it is keyed by its hash); a long note is one allocation per row.
	if long < short+rows*9/10 {
		t.Errorf("long notes cost %d mallocs, short ones %d: want one more per row (%d rows)", long, short, rows)
	}
	if short > rows*5/2 {
		t.Errorf("short repeated notes: %d mallocs for %d rows, want far fewer than 2 per row", short, rows)
	}
	// Distinct values fill the table and start it over; their bytes
	// share chunks, so that costs far less than a string per row ...
	if distinct > short+rows/20 {
		t.Errorf("distinct short notes cost %d mallocs, repeated ones %d: want a chunk per few hundred rows, not a string per row (%d rows)", distinct, short, rows)
	}
	// ... and so do they among repeated values.
	if mixed > short+rows/20 {
		t.Errorf("every second note distinct: %d mallocs, repeated ones %d: want a chunk per few hundred rows (%d rows)", mixed, short, rows)
	}
}

// saveLoad saves db, loads the bytes, checks that every table came back
// equal and that the loaded database re-saves byte for byte, and returns
// the loaded database.
func saveLoad(t *testing.T, db *Database) *Database {
	t.Helper()
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range db.Names() {
		want, _ := db.Table(name)
		gt, err := got.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		if !gt.Data().Equal(want.Data()) {
			t.Fatalf("table %q did not survive the round trip", name)
		}
	}
	var again bytes.Buffer
	if err := got.Save(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("re-saving the loaded database changed the bytes")
	}
	return got
}

// intTable returns a database holding one table of rows distinct rows of
// cols INT columns.
func intTable(t *testing.T, rows, cols int) *Database {
	t.Helper()
	db := NewDatabase()
	cs := make([]schema.Column, cols)
	for k := range cs {
		cs[k] = schema.Col("c"+strconv.Itoa(k), schema.TInt)
	}
	tb, err := db.Create("t", schema.NewSchema(cs...), External)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		tu := make(schema.Tuple, cols)
		for k := range tu {
			tu[k] = schema.Int(int64(i*cols + k))
		}
		tb.Data().Add(tu, 1+i%3)
	}
	return db
}

// TestSaveLoadAtChunkBoundaries: a loaded table's rows share slabs that
// grow from 1 Ki values (256 rows of 4 INTs, then 512 more); tables that
// end one row short of a slab, exactly at one and one row past it, and a
// table with no columns round-trip to the same bytes.
// (TestSaveLoadLongStrings has keys of up to 128 KiB.)
func TestSaveLoadAtChunkBoundaries(t *testing.T) {
	for _, rows := range []int{255, 256, 257, 767, 768, 769} {
		saveLoad(t, intTable(t, rows, 4))
	}
	for _, rows := range []int{0, 1} {
		saveLoad(t, intTable(t, rows, 0))
	}
}

// TestLoadRowsAllocateNothing: a loaded row costs no allocation of its
// own. 10 000 rows of 4 INTs are a few slabs and the map's tables —
// about 60 mallocs (go1.24, linux/amd64), where a tuple and a key per
// row were 20 000, and the arena chunks that held the keys once rows
// were keyed by strings about 68. Nor does a distinct short string: 10
// 000 rows of an INT and a 'cust-%d' share 4 KiB chunks, a chunk per
// few hundred rows, where a string per row was 10 000 more mallocs.
func TestLoadRowsAllocateNothing(t *testing.T) {
	const rows = 10_000
	custs := NewDatabase()
	tb, err := custs.Create("t", schema.NewSchema(schema.Col("id", schema.TInt), schema.Col("name", schema.TString)), External)
	if err != nil {
		t.Fatal(err)
	}
	strBytes := 0
	for i := 0; i < rows; i++ {
		name := "cust-" + strconv.Itoa(i)
		strBytes += len(name)
		tb.Data().Add(schema.Row(i, name), 1+i%3)
	}
	for _, c := range []struct {
		name   string
		db     *Database
		chunks int // what the strings cost: the strTable chunks they fill
	}{
		{"4 INTs", intTable(t, rows, 4), 0},
		{"an INT and a distinct short string", custs, strBytes/strChunk + 1 + 8}, // + the intern map's growth
	} {
		var buf bytes.Buffer
		if err := c.db.Save(&buf); err != nil {
			t.Fatal(err)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		_, err := Load(bytes.NewReader(buf.Bytes()))
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		got := m1.Mallocs - m0.Mallocs
		t.Logf("Load of %d rows of %s: %d mallocs", rows, c.name, got)
		if limit := uint64(rows/200 + 24 + c.chunks); got > limit {
			t.Errorf("Load of %d rows of %s: %d mallocs, want at most %d", rows, c.name, got, limit)
		}
	}
}

// TestSaveAllocatesNothingPerRow: Save's allocations do not grow with
// the rows it writes. Each integer is encoded into the buffered
// writer's spare room, and a writer with fewer bytes spare than the
// integer takes flushes first: an append past that room allocated, 27
// mallocs for 3 000 rows of 4 INTs and 237 for 30 000. Counted inside
// a GC-off window (gcOff), the least of five Saves: MemStats counts the
// whole process, and a stray object from the runtime (one, under
// -race) only ever adds.
func TestSaveAllocatesNothingPerRow(t *testing.T) {
	mallocs := func(rows int) uint64 {
		db := intTable(t, rows, 4)
		gcOn := gcOff()
		defer gcOn()
		least := uint64(math.MaxUint64)
		for range 5 {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			err := db.Save(io.Discard)
			runtime.ReadMemStats(&m1)
			if err != nil {
				t.Fatal(err)
			}
			least = min(least, m1.Mallocs-m0.Mallocs)
		}
		return least
	}
	small, large := mallocs(3_000), mallocs(30_000)
	t.Logf("Save of 3 000 rows of 4 INTs: %d mallocs; of 30 000: %d", small, large)
	if large > small {
		t.Errorf("Save of 30 000 rows makes %d objects, of 3 000 rows %d: it allocates by the rows", large, small)
	}
}

// gcOff turns the collector off for a window whose allocations MemStats
// reads, and returns what turns it back on: a cycle that starts inside
// the window wakes the runtime's unique-map cleanup, whose two objects
// would read as the measured code's (see internal/core's gcOff).
func gcOff() (on func()) {
	percent := debug.SetGCPercent(-1)
	var a, b runtime.MemStats
	for i := 0; i < 100; i++ {
		runtime.ReadMemStats(&a)
		runtime.Gosched()
		runtime.ReadMemStats(&b)
		if a.Mallocs == b.Mallocs {
			break
		}
	}
	return func() { debug.SetGCPercent(percent) }
}

// TestLoadThenDropFreesTheTable: no slab outlives the table loaded into
// it. After a 100 000-row table is loaded and dropped,
// the live heap is back within 10 % of where it was.
func TestLoadThenDropFreesTheTable(t *testing.T) {
	const rows = 100_000
	var buf bytes.Buffer
	if err := intTable(t, rows, 4).Save(&buf); err != nil {
		t.Fatal(err)
	}
	before := liveHeap()
	db, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	loaded := liveHeap()
	if err := db.Drop("t"); err != nil {
		t.Fatal(err)
	}
	after := liveHeap()
	t.Logf("live heap: %d B before the load, %d B loaded, %d B after the drop", before, loaded, after)
	if loaded < before+rows*64 {
		t.Fatalf("the loaded table holds %d B, less than 64 B a row: the test measures nothing", loaded-before)
	}
	if after > before+before/10 {
		t.Errorf("%d B live after the drop, %d B before the load: the table's slabs outlive it", after, before)
	}
	runtime.KeepAlive(db)
	runtime.KeepAlive(&buf) // live in all three readings, or its death counts against the table
}

// liveHeap returns the bytes a full collection finds reachable: the
// marked heap (/gc/heap/live:bytes), not MemStats.HeapAlloc, which also
// counts dead objects not yet swept. It reads only after a cycle that
// began once an earlier one had completed its sweep: runtime.GC stops
// waiting for its sweep when another cycle starts, so it collects
// until a cycle ends with the sweep done (/gc/cycles/total has not
// moved past it) and then once more, from that clean heap.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/live:bytes"}}
	for swept := false; !swept; {
		metrics.Read(s[:1])
		n := s[0].Value.Uint64()
		runtime.GC()
		metrics.Read(s[:1])
		swept = s[0].Value.Uint64() == n+1 // no cycle began during this one's sweep
	}
	runtime.GC()
	metrics.Read(s)
	return s[1].Value.Uint64()
}
