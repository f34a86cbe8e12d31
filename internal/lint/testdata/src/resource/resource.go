// Package resource is a dvmlint fixture for the resource-lifecycle
// analyzer: contract-paired acquisitions (files, tickers, gzip streams)
// must be closed on every path out of the acquiring function, escapes
// transfer the obligation, error-paired constructors owe nothing on
// their failure branch, and a discarded acquisition is a leak.
package resource

import (
	"compress/gzip"
	"io"
	"os"
	"time"
)

// LeakOnErrorPath leaks f when stamp fails: the early error return
// skips the close at the bottom.
func LeakOnErrorPath(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err // clean: the paired error is non-nil, nothing opened
	}
	if err := stamp(f); err != nil {
		return err // want resource-lifecycle
	}
	return f.Close()
}

// ProfileShape mirrors the dvmbench leak this analyzer caught in the
// real tree: passing f to a starter BORROWS the handle, so the error
// path still owns the close.
func ProfileShape(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := start(f); err != nil {
		return err // want resource-lifecycle: start borrowed f, we still own it
	}
	stop()
	return f.Close()
}

// CloseFold is clean: the fold idiom closes on every path.
func CloseFold(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	_, werr := f.Write(data)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// DeferClose is clean: the deferred close covers every return.
func DeferClose(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return scan(f)
}

// DeferredLiteralClose is clean: the closer runs inside a deferred
// cleanup literal.
func DeferredLiteralClose(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); cerr != nil {
			_ = cerr
		}
	}()
	_, err = f.WriteString("x")
	return err
}

// EscapeReturn is clean: returning f transfers the obligation to the
// caller.
func EscapeReturn(path string) (*os.File, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// EscapeStruct is clean: storing f in a composite moves ownership to
// the structure.
func EscapeStruct(path string) (*holder, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &holder{f: f}, nil
}

type holder struct{ f *os.File }

// HandedOff transfers f to a goroutine by argument — a borrow to the
// analyzer, an intentional ownership transfer to the author, so the
// finding is suppressed with a reason.
func HandedOff(path string, serve func(*os.File)) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	go serve(f)
	//dvmlint:ignore resource-lifecycle the serve goroutine owns f and closes it on shutdown
	return nil
}

// TickerLeak returns the channel but loses the ticker: nobody can
// ever stop it.
func TickerLeak(d time.Duration) <-chan time.Time {
	t := time.NewTicker(d)
	return t.C // want resource-lifecycle
}

// TickerStopped is clean: NewTicker has no paired error, defer Stop
// covers the exit.
func TickerStopped(d time.Duration, work func()) {
	t := time.NewTicker(d)
	defer t.Stop()
	<-t.C
	work()
}

// GzipPaired is clean: error-paired reader, fold close.
func GzipPaired(r io.Reader) ([]byte, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, err
	}
	data, rerr := io.ReadAll(zr)
	if cerr := zr.Close(); rerr == nil {
		rerr = cerr
	}
	return data, rerr
}

// GzipWriterLeak forgets the writer on the early error return.
func GzipWriterLeak(w io.Writer, data []byte) error {
	zw := gzip.NewWriter(w)
	if _, err := zw.Write(data); err != nil {
		return err // want resource-lifecycle
	}
	return zw.Close()
}

// TickerDiscarded starts a ticker and keeps nothing: no path can ever
// stop it.
func TickerDiscarded(d time.Duration) {
	time.NewTicker(d)     // want resource-lifecycle
	_ = time.NewTicker(d) // want resource-lifecycle
}

func stamp(f *os.File) error {
	_, err := f.WriteString("stamp")
	return err
}

func start(f *os.File) error {
	_, err := f.WriteString("header")
	return err
}

func stop() {}

func scan(f *os.File) error {
	buf := make([]byte, 16)
	_, err := f.Read(buf)
	return err
}
