package storage

import (
	"bytes"
	"math/rand"
	"runtime"
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
// streams are a few dozen bytes long; none may cost more than 4 MiB.
func TestLoadBoundsHostileHeaders(t *testing.T) {
	table := func(colCount uint32) []byte { // one table "t" up to its column list
		b := u32([]byte("DVM1"), 1)
		b = append(u32(b, 1), 't')
		b = append(b, byte(External))
		return u32(b, colCount)
	}
	oneIntCol := append(u32(table(1), 1), 'a', byte(schema.TInt))
	cases := map[string][]byte{
		"table count":    u32([]byte("DVM1"), 0xFFFFFFFF),
		"column count":   table(0xFFFFFFFF),
		"distinct count": u32(oneIntCol, 0xFFFFFFFF),
		"string length":  u32(u32([]byte("DVM1"), 1), 0xFFFFFFFF),
		"spec count":     u32([]byte("DVM2"), 0xFFFFFFFF),
	}
	for name, data := range cases {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		_, err := Load(bytes.NewReader(data))
		runtime.ReadMemStats(&m1)
		if err == nil {
			t.Errorf("forged %s accepted", name)
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
// re-Save differs from the bytes read.
func TestLoadRejectsDuplicateTuples(t *testing.T) {
	b := u32([]byte("DVM1"), 1)
	b = append(u32(b, 1), 't')
	b = append(b, byte(External))
	b = append(u32(u32(b, 1), 1), 'a', byte(schema.TInt))
	b = u32(b, 2) // two "distinct" tuples, both [7]
	for i := 0; i < 2; i++ {
		b = append(u32(b, 1), tagInt, 7, 0, 0, 0, 0, 0, 0, 0)
	}
	if _, err := Load(bytes.NewReader(b)); err == nil || !strings.Contains(err.Error(), "duplicate tuple") {
		t.Fatalf("a repeated tuple loaded: %v", err)
	}
}

// TestSaveLoadLongStrings: strings are read out of the bufio buffer when
// they fit it and through a second path when they do not; both sides of
// the buffer size, and the size itself, round-trip.
func TestSaveLoadLongStrings(t *testing.T) {
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
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	gt, err := got.Table("docs")
	if err != nil {
		t.Fatal(err)
	}
	if !gt.Data().Equal(tb.Data()) {
		t.Fatal("long strings did not survive the round trip")
	}
	var again bytes.Buffer
	if err := got.Save(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("re-saving the loaded database changed the bytes")
	}
}
