// Doccheck keeps the documentation's code references honest. It scans
// markdown files for two kinds of reference and resolves each against
// the working tree:
//
//   - file:line anchors written as `path/to/file.go:NN`, optionally
//     with a symbol in either of two forms: after the anchor in
//     parentheses, `internal/core/refresh.go:23` (`Refresh`), or beside
//     it inside one pair of parentheses, (`internal/core/refresh.go:23`,
//     `Manager.Refresh`), where a dotted symbol names its last part. The
//     file must exist, line NN must exist in it, and when a symbol is
//     given its name must appear within ±2 lines of NN — so anchors fail
//     loudly when the code they point at moves.
//   - relative markdown links [text](path) (fragments and external
//     URLs are skipped, and so is a bracket inside an inline code
//     span). The target must exist relative to the referring document.
//
// Usage: doccheck [files...]; with no arguments it checks README.md,
// docs/*.md, DESIGN.md and EXPERIMENTS.md from the repository root.
// Exit status 1 if any reference is broken. Run by scripts/check.sh and
// make check.
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

// anchorRe matches `path.go:NN` optionally followed by (`Symbol`) or
// by , `Type.Symbol` — the comma form, a symbol only when an opening
// parenthesis comes right before the anchor (group 1), so a prose list
// of anchors is not read as one. The path must contain a slash (so prose
// like `file.go:NN` placeholders with bare names do not trip the
// checker) and the extension is restricted to source/doc files we
// anchor into.
var anchorRe = regexp.MustCompile(
	"(\\(?)`([A-Za-z0-9_.-]+(?:/[A-Za-z0-9_.-]+)+\\.(?:go|md|sh|sql)):([0-9]+)`" +
		"(?:\\s*\\(`([A-Za-z_][A-Za-z0-9_]*)`\\)|,\\s*`([A-Za-z_][A-Za-z0-9_.]*)`)?")

// linkRe matches markdown inline links [text](target).
var linkRe = regexp.MustCompile(`\[[^\]\n]*\]\(([^)\s]+)\)`)

// symbolSlack is how far (in lines) a named symbol may drift from its
// anchored line before the anchor is considered stale.
const symbolSlack = 2

func main() {
	docs := os.Args[1:]
	if len(docs) == 0 {
		docs = []string{"README.md"}
		globbed, err := filepath.Glob(filepath.Join("docs", "*.md"))
		if err != nil {
			fmt.Fprintln(os.Stderr, "doccheck:", err)
			os.Exit(2)
		}
		docs = append(append(docs, globbed...), "DESIGN.md", "EXPERIMENTS.md")
	}
	broken := 0
	checked := 0
	for _, doc := range docs {
		b, c, err := checkDoc(doc)
		if err != nil {
			fmt.Fprintln(os.Stderr, "doccheck:", err)
			os.Exit(2)
		}
		broken += b
		checked += c
	}
	if broken > 0 {
		fmt.Fprintf(os.Stderr, "doccheck: %d broken reference(s) out of %d\n", broken, checked)
		os.Exit(1)
	}
	fmt.Printf("doccheck: %d reference(s) across %d file(s) all resolve\n", checked, len(docs))
}

// checkDoc validates every anchor and relative link in one markdown
// file, reporting each failure to stderr. It returns the number of
// broken and total references.
func checkDoc(doc string) (broken, checked int, err error) {
	data, err := os.ReadFile(doc)
	if err != nil {
		return 0, 0, err
	}
	fail := func(line int, format string, args ...any) {
		fmt.Fprintf(os.Stderr, "%s:%d: %s\n", doc, line, fmt.Sprintf(format, args...))
		broken++
	}
	prose := strings.Split(withoutCodeSpans(string(data)), "\n")
	for i, line := range strings.Split(string(data), "\n") {
		lineNo := i + 1
		for _, m := range anchorRe.FindAllStringSubmatch(line, -1) {
			checked++
			path, numStr, symbol := m[2], m[3], m[4]
			if m[1] == "(" && m[5] != "" {
				symbol = m[5][strings.LastIndexByte(m[5], '.')+1:]
			}
			n, _ := strconv.Atoi(numStr)
			lines, err := fileLines(path)
			if err != nil {
				fail(lineNo, "anchor `%s:%d` — %v", path, n, err)
				continue
			}
			if n < 1 || n > len(lines) {
				fail(lineNo, "anchor `%s:%d` — file has only %d lines", path, n, len(lines))
				continue
			}
			if symbol != "" && !symbolNear(lines, n, symbol) {
				fail(lineNo, "anchor `%s:%d` (`%s`) — symbol not found within ±%d lines (code moved?)",
					path, n, symbol, symbolSlack)
			}
		}
		for _, m := range linkRe.FindAllStringSubmatch(prose[i], -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "#") ||
				strings.HasPrefix(target, "mailto:") {
				continue
			}
			checked++
			target, _, _ = strings.Cut(target, "#")
			if target == "" {
				continue // pure fragment after Cut — already counted, always fine
			}
			resolved := filepath.Join(filepath.Dir(doc), target)
			if _, err := os.Stat(resolved); err != nil {
				fail(lineNo, "link (%s) — target %s does not exist", m[1], resolved)
			}
		}
	}
	return broken, checked, nil
}

// codeSpanRe matches an inline code span, one or two backticks through
// as many again, across a line end too.
var codeSpanRe = regexp.MustCompile("``[^`]*``|`[^`]*`")

// withoutCodeSpans returns text with its code spans blanked to spaces,
// newlines kept, so that a bracket in code is not read as a link and
// line numbers still match.
func withoutCodeSpans(text string) string {
	return codeSpanRe.ReplaceAllStringFunc(text, func(span string) string {
		return strings.Map(func(r rune) rune {
			if r == '\n' {
				return r
			}
			return ' '
		}, span)
	})
}

// fileCache avoids re-reading a file for every anchor into it.
var fileCache = map[string][]string{}

func fileLines(path string) ([]string, error) {
	if lines, ok := fileCache[path]; ok {
		return lines, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(string(data), "\n")
	fileCache[path] = lines
	return lines, nil
}

// symbolNear reports whether symbol occurs as a word on any line
// within symbolSlack of the 1-based line n.
func symbolNear(lines []string, n int, symbol string) bool {
	lo := max(n-1-symbolSlack, 0)
	hi := min(n-1+symbolSlack, len(lines)-1)
	re := regexp.MustCompile(`\b` + regexp.QuoteMeta(symbol) + `\b`)
	for i := lo; i <= hi; i++ {
		if re.MatchString(lines[i]) {
			return true
		}
	}
	return false
}
