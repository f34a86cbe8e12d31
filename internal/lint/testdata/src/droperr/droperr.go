// Package droperr is a dvmlint fixture for error-flow's dropped errors
// (expression and defer statements) and the suppression syntax.
package droperr

import (
	"fmt"
	"os"
	"strings"
)

// Sloppy discards the error from Close.
func Sloppy(f *os.File) {
	f.Close() // want: dropped error
}

// Deferred discards the error from a deferred Close.
func Deferred(f *os.File) {
	defer f.Close() // want: dropped error
}

// Explicit discards are visible in review and allowed (not of Close).
func Explicit(f *os.File) {
	_ = f.Chmod(0o600)
}

// Handled checks the error.
func Handled(f *os.File) error {
	return f.Close()
}

// Printing is exempt: the fmt family's errors are conventionally
// unobservable, as are strings.Builder's.
func Printing() string {
	fmt.Println("hello")
	var sb strings.Builder
	sb.WriteString("x")
	return sb.String()
}

// Suppressed carries a reasoned suppression: no finding.
func Suppressed(f *os.File) {
	//dvmlint:ignore error-flow close error on a read-only handle is unobservable
	f.Close()
}

// BadSuppression has no reason: the suppression itself is reported AND
// does not suppress.
func BadSuppression(f *os.File) {
	//dvmlint:ignore error-flow
	f.Close() // want: dropped error (suppression invalid)
}

// UnknownCheck names a check that does not exist.
func UnknownCheck(f *os.File) error {
	//dvmlint:ignore no-such-check because I said so
	return f.Close()
}

// Stale carries a suppression that matches no finding: the suppression
// itself is reported as stale.
func Stale(f *os.File) {
	//dvmlint:ignore error-flow the discard below is already explicit
	_ = f.Chmod(0o600) // want: stale suppression
}
