package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strings"

	"dvm/internal/bag"
	"dvm/internal/obs/trace"
	"dvm/internal/schema"
)

// Binary snapshot format:
//
//	magic "DVM1" | u32 tableCount
//	per table: str name | u8 kind | u32 colCount
//	           per col: str name | u8 type
//	           u32 distinctTuples
//	           per tuple: u32 multiplicity | per column: value
//	value: u8 tag | payload (i64 / f64 bits / str / u8 bool; NULL empty)
//
// Strings are u32 length + bytes. All integers little-endian.
//
// DVM1 is the only format. "DVM2" — DVM1 prefixed with the registry of
// the since-deleted sharded maintenance mode — is refused by name.

var (
	snapshotMagic   = [4]byte{'D', 'V', 'M', '1'}
	snapshotMagicV2 = [4]byte{'D', 'V', 'M', '2'}
)

const (
	tagNull byte = iota
	tagInt
	tagFloat
	tagString
	tagBool
)

// countingWriter wraps an io.Writer and tallies bytes written, so Save
// can report snapshot size without buffering the whole snapshot.
type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// Save writes a snapshot of the whole database (external and internal
// tables) to w. The snapshot restores with Load. When a registry is
// attached via SetMetrics, the bytes written are recorded as
// snapshot_save_bytes.
func (db *Database) Save(w io.Writer) error { return db.save(w, false) }

// SaveExternal is Save restricted to the external tables — what the sql
// engine persists, since it re-derives every internal table on load. The
// bytes are those Save would write for a database holding only these
// tables, streamed from the live tables: nothing is copied, so the
// caller keeps them from changing until it returns.
func (db *Database) SaveExternal(w io.Writer) error { return db.save(w, true) }

func (db *Database) save(w io.Writer, externalOnly bool) error {
	names := db.Names()
	if externalOnly {
		kept := names[:0]
		for _, name := range names {
			if db.tables[name].kind == External {
				kept = append(kept, name)
			}
		}
		names = kept
	}
	cw := &countingWriter{w: w}
	sp := db.tracer.StartTrace(trace.SpanSnapshotSave)
	defer func() {
		sp.SetAttrs(trace.Int("bytes", cw.n), trace.Int("tables", int64(len(names))))
		sp.End()
	}()
	if db.metrics != nil {
		defer func() { db.metrics.Counter("snapshot_save_bytes", "").Add(cw.n) }()
	}
	bw := bufio.NewWriter(cw)
	if _, err := bw.Write(snapshotMagic[:]); err != nil {
		return err
	}
	if err := writeU32(bw, uint32(len(names))); err != nil {
		return err
	}
	for _, name := range names {
		t := db.tables[name]
		if err := writeStr(bw, t.name); err != nil {
			return err
		}
		if err := bw.WriteByte(byte(t.kind)); err != nil {
			return err
		}
		if err := writeU32(bw, uint32(t.sch.Len())); err != nil {
			return err
		}
		for i := 0; i < t.sch.Len(); i++ {
			c := t.sch.Column(i)
			if err := writeStr(bw, c.Name); err != nil {
				return err
			}
			if err := bw.WriteByte(byte(c.Type)); err != nil {
				return err
			}
		}
		if err := writeU32(bw, uint32(t.data.Distinct())); err != nil {
			return err
		}
		// Ordered iteration keeps snapshot bytes deterministic: the same
		// database always serializes identically (diffable, hashable),
		// its rows in Tuple.Compare order (Bag.EachOrdered).
		var werr error
		t.data.EachOrdered(func(tu schema.Tuple, n int) {
			if werr != nil {
				return
			}
			if werr = writeU32(bw, uint32(n)); werr != nil {
				return
			}
			for _, v := range tu {
				if werr = writeValue(bw, v); werr != nil {
					return
				}
			}
		})
		if werr != nil {
			return werr
		}
	}
	return bw.Flush()
}

// Limits on what a snapshot header may claim. The bytes are untrusted:
// every count that sizes an allocation or a loop is checked against one
// of these (or, for strings, in readStr) before it is used, so a forged
// header costs a bounded allocation and an error, whatever it says. A
// table's distinctTuples header sizes nothing here: bag.Build allocates
// as the rows arrive, and caps the map it pre-sizes from the count.
const (
	maxTables  = 1 << 20
	maxColumns = 1 << 16
	// Load shares one copy of a repeated short string (strTable): strings
	// up to maxInternLen bytes, at most maxInterned of them at a time.
	maxInternLen = 32
	maxInterned  = 256
)

// strTable interns the short string values of one Load, so a
// low-cardinality column ("High" / "Low") costs one string per distinct
// value, not one per row. It is bounded by starting over when it holds
// maxInterned strings: a column of distinct short strings that fills it
// costs the repeated values beside it one more string each per round,
// and cannot crowd them out. A string it takes is appended to a chunk of
// at most strChunk bytes — a strings.Builder grown once and never past
// its size, whose String shares the buffer — so a column of distinct
// short strings ('cust-%d') costs a chunk per few hundred rows, not an
// allocation per row, and a chunk is freed with the last string it
// holds. A nil strTable interns nothing.
type strTable struct {
	m     map[string]string
	chunk strings.Builder
}

// strChunk is the size of a strTable chunk, in bytes.
const strChunk = 4 << 10

// str returns string(b), shared with an equal string it returned before
// when b is short enough to be worth looking up.
func (in *strTable) str(b []byte) string {
	if in == nil || len(b) > maxInternLen {
		return string(b)
	}
	if s, ok := in.m[string(b)]; ok {
		return s
	}
	if len(in.m) >= maxInterned {
		clear(in.m)
	}
	if in.chunk.Cap()-in.chunk.Len() < len(b) {
		in.chunk = strings.Builder{}
		in.chunk.Grow(strChunk)
	}
	n := in.chunk.Len()
	in.chunk.Write(b)
	s := in.chunk.String()[n:]
	in.m[s] = s
	return s
}

// Load restores a database snapshot written by Save. Malformed or
// hostile input is an error, never a panic, and allocates no more than a
// constant (the capped pre-size of one table's map) plus a small
// multiple of the bytes actually read.
func Load(r io.Reader) (*Database, error) {
	db, err := load(bufio.NewReader(r))
	if err != nil {
		return nil, fmt.Errorf("storage: load: %w", err)
	}
	return db, nil
}

func load(br *bufio.Reader) (*Database, error) {
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, err
	}
	if magic == snapshotMagicV2 {
		return nil, fmt.Errorf("DVM2 (sharded) snapshots are no longer supported; only DVM1 loads")
	}
	if magic != snapshotMagic {
		return nil, fmt.Errorf("bad magic %q", magic[:])
	}
	db := NewDatabase()
	strs := &strTable{m: make(map[string]string)}
	tableCount, err := readU32(br)
	if err != nil {
		return nil, err
	}
	if tableCount > maxTables {
		return nil, fmt.Errorf("implausible table count %d", tableCount)
	}
	for i := uint32(0); i < tableCount; i++ {
		name, err := readStr(br, nil)
		if err != nil {
			return nil, err
		}
		kindByte, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		if kindByte > byte(Internal) {
			return nil, fmt.Errorf("bad table kind %d for %q", kindByte, name)
		}
		colCount, err := readU32(br)
		if err != nil {
			return nil, err
		}
		if colCount > maxColumns {
			return nil, fmt.Errorf("implausible column count %d for %q", colCount, name)
		}
		cols := make([]schema.Column, colCount)
		for j := range cols {
			cn, err := readStr(br, nil)
			if err != nil {
				return nil, err
			}
			ct, err := br.ReadByte()
			if err != nil {
				return nil, err
			}
			if schema.Type(ct) > schema.TBool {
				return nil, fmt.Errorf("bad column type %d", ct)
			}
			cols[j] = schema.Col(cn, schema.Type(ct))
		}
		sch := schema.NewSchema(cols...)
		tb, err := db.Create(name, sch, Kind(kindByte))
		if err != nil {
			return nil, err
		}
		distinct, err := readU32(br)
		if err != nil {
			return nil, err
		}
		// Rows are decoded in place, into the slabs bag.Build lends; Build
		// rejects a zero multiplicity and a repeated row.
		data, err := bag.Build(int(colCount), int(distinct), func(tu schema.Tuple) (int, error) {
			mult, err := readU32(br)
			if err != nil {
				return 0, err
			}
			for k := range tu {
				if tu[k], err = readValue(br, strs); err != nil {
					return 0, err
				}
			}
			return int(mult), sch.Validate(tu)
		})
		if err != nil {
			return nil, fmt.Errorf("table %q: %w", name, err)
		}
		tb.Replace(data)
	}
	return db, nil
}

// The integer writers encode into the bufio.Writer's own spare capacity
// (AvailableBuffer), and the readers decode out of the bufio.Reader's
// buffer (Peek, then Discard): a local array handed to Write or
// io.ReadFull escapes, which is one heap allocation per integer. A
// writer first flushes a buffer with less room spare than the integer
// takes (room), since an append past AvailableBuffer's capacity
// allocates too.

func writeU32(w *bufio.Writer, v uint32) error {
	if err := room(w, 4); err != nil {
		return err
	}
	_, err := w.Write(binary.LittleEndian.AppendUint32(w.AvailableBuffer(), v))
	return err
}

func writeU64(w *bufio.Writer, v uint64) error {
	if err := room(w, 8); err != nil {
		return err
	}
	_, err := w.Write(binary.LittleEndian.AppendUint64(w.AvailableBuffer(), v))
	return err
}

// room flushes w unless n bytes of its buffer are spare.
func room(w *bufio.Writer, n int) error {
	if w.Available() >= n {
		return nil
	}
	return w.Flush()
}

// peek returns the next n bytes (n no larger than r's buffer) without
// consuming them; the caller decodes them, then calls r.Discard(n). A
// stream that ends inside them is io.ErrUnexpectedEOF, as io.ReadFull
// reports it.
func peek(r *bufio.Reader, n int) ([]byte, error) {
	b, err := r.Peek(n)
	if err == io.EOF && len(b) > 0 {
		err = io.ErrUnexpectedEOF
	}
	return b, err
}

func readU32(r *bufio.Reader) (uint32, error) {
	b, err := peek(r, 4)
	if err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint32(b)
	_, err = r.Discard(4)
	return v, err
}

func readU64(r *bufio.Reader) (uint64, error) {
	b, err := peek(r, 8)
	if err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint64(b)
	_, err = r.Discard(8)
	return v, err
}

func writeStr(w *bufio.Writer, s string) error {
	if err := writeU32(w, uint32(len(s))); err != nil {
		return err
	}
	_, err := w.WriteString(s)
	return err
}

// readStr reads a length-prefixed string; one that fits r's buffer is
// copied once, out of the buffer, or shared through in. A longer one is
// read by ReadLong.
func readStr(r *bufio.Reader, in *strTable) (string, error) {
	n, err := readU32(r)
	if err != nil {
		return "", err
	}
	if n > 1<<24 {
		return "", fmt.Errorf("string length %d too large", n)
	}
	if int(n) <= r.Size() {
		b, err := peek(r, int(n))
		if err != nil {
			return "", err
		}
		s := in.str(b)
		_, err = r.Discard(int(n))
		return s, err
	}
	return ReadLong(r, int(n))
}

// ReadLong reads the n bytes of an untrusted length-prefixed string. It
// grows the string as the bytes arrive, in steps of at most 32 KiB, so a
// forged length costs a small multiple of the bytes the stream holds,
// not n. A stream that ends early is io.ErrUnexpectedEOF.
func ReadLong(r io.Reader, n int) (string, error) {
	var sb strings.Builder
	sb.Grow(min(n, 32<<10))
	if _, err := io.CopyN(&sb, r, int64(n)); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return "", err
	}
	return sb.String(), nil
}

func writeValue(w *bufio.Writer, v schema.Value) error {
	switch v.Type() {
	case schema.TNull:
		return w.WriteByte(tagNull)
	case schema.TInt:
		if err := w.WriteByte(tagInt); err != nil {
			return err
		}
		return writeU64(w, uint64(v.AsInt()))
	case schema.TFloat:
		if err := w.WriteByte(tagFloat); err != nil {
			return err
		}
		return writeU64(w, math.Float64bits(v.AsFloat()))
	case schema.TString:
		if err := w.WriteByte(tagString); err != nil {
			return err
		}
		return writeStr(w, v.AsString())
	case schema.TBool:
		if err := w.WriteByte(tagBool); err != nil {
			return err
		}
		if v.AsBool() {
			return w.WriteByte(1)
		}
		return w.WriteByte(0)
	}
	return fmt.Errorf("storage: save: unknown value type %v", v.Type())
}

func readValue(r *bufio.Reader, in *strTable) (schema.Value, error) {
	tag, err := r.ReadByte()
	if err != nil {
		return schema.Value{}, err
	}
	switch tag {
	case tagNull:
		return schema.Null(), nil
	case tagInt:
		u, err := readU64(r)
		if err != nil {
			return schema.Value{}, err
		}
		return schema.Int(int64(u)), nil
	case tagFloat:
		u, err := readU64(r)
		if err != nil {
			return schema.Value{}, err
		}
		return schema.Float(math.Float64frombits(u)), nil
	case tagString:
		s, err := readStr(r, in)
		if err != nil {
			return schema.Value{}, err
		}
		return schema.Str(s), nil
	case tagBool:
		b, err := r.ReadByte()
		if err != nil {
			return schema.Value{}, err
		}
		return schema.Bool(b != 0), nil
	}
	return schema.Value{}, fmt.Errorf("unknown value tag %d", tag)
}
