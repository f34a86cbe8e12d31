package sql

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"dvm/internal/core"
	"dvm/internal/obs/trace"
	"dvm/internal/storage"
)

// Engine snapshots persist the external tables plus the SQL of every
// materialized view. Loading restores the base data and replays the
// view DDL, re-materializing each view from the restored state — so a
// loaded engine starts with every view consistent and empty logs.
//
// SaveTo reads the live tables: it streams them to the writer without
// copying the database first, so no statement may run on the engine
// while it does — which an Engine, being one session and not safe for
// concurrent use, already demands of its caller.
//
// Format: magic "DVME" | u32 viewCount | per view: u32 len + SQL bytes |
// a storage snapshot of the external tables.

var engineMagic = [4]byte{'D', 'V', 'M', 'E'}

// SaveTo writes an engine snapshot.
func (e *Engine) SaveTo(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(engineMagic[:]); err != nil {
		return err
	}
	views := e.mgr.Views()
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], uint32(len(views)))
	if _, err := bw.Write(buf[:]); err != nil {
		return err
	}
	for _, v := range views {
		cv, ok := e.viewDDL[v.Name]
		if !ok {
			return fmt.Errorf("sql: view %q was not created through SQL; snapshot cannot persist it", v.Name)
		}
		stmt := SQL(cv)
		binary.LittleEndian.PutUint32(buf[:], uint32(len(stmt)))
		if _, err := bw.Write(buf[:]); err != nil {
			return err
		}
		if _, err := bw.WriteString(stmt); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}

	// External tables only: internal state is re-derived on load.
	return e.db.SaveExternal(w)
}

// countingReader tallies bytes consumed so LoadEngine can report the
// snapshot_load_bytes metric on the freshly built engine.
type countingReader struct {
	r io.Reader
	n int64
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n += int64(n)
	return n, err
}

// readEngineHeader decodes the DVME prefix of an engine snapshot — magic,
// view count, one DDL string per view — leaving br at the storage
// snapshot. The counts are untrusted and bounded before they size
// anything.
func readEngineHeader(br *bufio.Reader) ([]string, error) {
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("sql: load: %w", err)
	}
	if magic != engineMagic {
		return nil, fmt.Errorf("sql: load: bad magic %q", magic[:])
	}
	var buf [4]byte
	if _, err := io.ReadFull(br, buf[:]); err != nil {
		return nil, err
	}
	count := binary.LittleEndian.Uint32(buf[:])
	if count > 1<<20 {
		return nil, fmt.Errorf("sql: load: implausible view count %d", count)
	}
	var ddl []string // grown as statements arrive, not sized by the header
	for i := uint32(0); i < count; i++ {
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return nil, err
		}
		n := binary.LittleEndian.Uint32(buf[:])
		if n > 1<<24 {
			return nil, fmt.Errorf("sql: load: implausible DDL length %d", n)
		}
		stmt, err := storage.ReadLong(br, int(n))
		if err != nil {
			return nil, err
		}
		ddl = append(ddl, stmt)
	}
	return ddl, nil
}

// LoadEngine restores an engine snapshot written by SaveTo. The bytes
// consumed are recorded as snapshot_load_bytes in the new engine's
// registry, and — when an option enables tracing — the whole load is
// recorded as a storage.snapshot.load trace.
func LoadEngine(r io.Reader, opts ...EngineOption) (*Engine, error) {
	loadStart := time.Now()
	cr := &countingReader{r: r}
	br := bufio.NewReader(cr)
	ddl, err := readEngineHeader(br)
	if err != nil {
		return nil, err
	}
	db, err := storage.Load(br)
	if err != nil {
		return nil, err
	}
	e := NewEngineOver(db, core.NewManager(db))
	e.applyOptions(opts)
	if err := e.Err(); err != nil {
		return nil, err
	}
	for _, stmt := range ddl {
		if _, err := e.Exec(stmt); err != nil {
			return nil, fmt.Errorf("sql: load: replaying %q: %w", stmt, err)
		}
	}
	// Only the bytes actually consumed count (the bufio reader may have
	// read ahead into its buffer).
	loaded := cr.n - int64(br.Buffered())
	e.mgr.Obs().Counter("snapshot_load_bytes", "").Add(loaded)
	// The tracer is born mid-load, so the load span is opened
	// retroactively at the recorded start (covering parse + DDL replay).
	lsp := e.mgr.Tracer().StartTraceAt(trace.SpanSnapshotLoad, loadStart,
		trace.Int("bytes", loaded), trace.Int("views", int64(len(ddl))))
	lsp.EndExplicit(time.Since(loadStart))
	return e, nil
}
