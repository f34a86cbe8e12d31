// Doccheck keeps the documentation's code references honest. It scans
// markdown files for two kinds of reference and resolves each against
// the working tree:
//
//   - symbol anchors, a Go file and a declaration in it, written in
//     either of two forms: the symbol after the path in parentheses,
//     `internal/core/refresh.go` (`Refresh`), or beside it inside one
//     pair of parentheses, (`internal/core/refresh.go`, `Manager.Refresh`).
//     The file must parse, and the symbol must name one of its
//     declarations: a top-level func, type, var or const, or a method,
//     by its name or as Type.Method; Type.Field names a struct field,
//     and pkg.Name a top-level declaration. An anchor names no line,
//     so it moves with the code and fails loudly only when the
//     declaration is renamed or deleted. A path with a line number,
//     `path.go:NN`, is the old line form and is reported.
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
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// anchorRe matches `path.go` followed by (`Symbol`), or, when an
// opening parenthesis comes right before the path (group 1), by
// , `Symbol` — so a prose list of files is not read as one anchor. The
// symbol may sit on the next line. The path must contain a slash, so a
// bare file name in prose is not an anchor.
var anchorRe = regexp.MustCompile(
	"(\\(?)`([A-Za-z0-9_.-]+(?:/[A-Za-z0-9_.-]+)+\\.go)`" +
		"(?:\\s*\\(`([A-Za-z_][A-Za-z0-9_.]*)`\\)|,\\s*`([A-Za-z_][A-Za-z0-9_.]*)`)")

// lineAnchorRe matches the retired line form, `path.go:NN`.
var lineAnchorRe = regexp.MustCompile("`[A-Za-z0-9_.-]+(?:/[A-Za-z0-9_.-]+)+\\.[a-z]+:[0-9]+`")

// linkRe matches markdown inline links [text](target).
var linkRe = regexp.MustCompile(`\[[^\]\n]*\]\(([^)\s]+)\)`)

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
	text := string(data)
	lineOf := func(off int) int { return strings.Count(text[:off], "\n") + 1 }
	for _, at := range anchorRe.FindAllStringSubmatchIndex(text, -1) {
		sub := func(i int) string {
			if at[2*i] < 0 {
				return ""
			}
			return text[at[2*i]:at[2*i+1]]
		}
		path, symbol := sub(2), sub(3)
		if symbol == "" {
			if sub(1) != "(" {
				continue // a prose list of files, not an anchor
			}
			symbol = sub(4)
		}
		checked++
		names, err := declarations(path)
		if err != nil {
			fail(lineOf(at[0]), "anchor `%s` — %v", path, err)
			continue
		}
		if !names[symbol] {
			fail(lineOf(at[0]), "anchor `%s` (`%s`) — no such declaration (renamed or deleted?)", path, symbol)
		}
	}
	for _, at := range lineAnchorRe.FindAllStringIndex(text, -1) {
		checked++
		fail(lineOf(at[0]), "anchor %s names a line; name a symbol instead: `path.go` (`Symbol`)", text[at[0]:at[1]])
	}
	prose := strings.Split(withoutCodeSpans(text), "\n")
	for i := range prose {
		lineNo := i + 1
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

// declCache avoids re-parsing a file for every anchor into it.
var declCache = map[string]map[string]bool{}

// declarations returns the names an anchor into path may use: each
// top-level func, type, var and const, by name and as pkg.Name; each
// method, by name and as Type.Method; and each field of a struct type,
// as Type.Field.
func declarations(path string) (map[string]bool, error) {
	if names, ok := declCache[path]; ok {
		return names, nil
	}
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	names := map[string]bool{}
	top := func(name string) {
		names[name] = true
		names[f.Name.Name+"."+name] = true
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				top(d.Name.Name)
				continue
			}
			names[d.Name.Name] = true
			if recv := receiverName(d.Recv.List[0].Type); recv != "" {
				names[recv+"."+d.Name.Name] = true
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					top(spec.Name.Name)
					if st, ok := spec.Type.(*ast.StructType); ok {
						for _, field := range st.Fields.List {
							for _, n := range field.Names {
								names[spec.Name.Name+"."+n.Name] = true
							}
						}
					}
				case *ast.ValueSpec:
					for _, n := range spec.Names {
						top(n.Name)
					}
				}
			}
		}
	}
	declCache[path] = names
	return names, nil
}

// receiverName is the type a method's receiver names: T of T, *T, T[P].
func receiverName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
