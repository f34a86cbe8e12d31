// Package sql implements a small embedded SQL dialect compiled to the bag
// algebra: CREATE TABLE, CREATE MATERIALIZED VIEW ... REFRESH
// IMMEDIATE/DEFERRED, SELECT (joins, WHERE, DISTINCT, UNION ALL, EXCEPT,
// MONUS), INSERT, DELETE, and the maintenance statements REFRESH,
// PROPAGATE, and PARTIAL REFRESH. Bag (SQL duplicate) semantics
// throughout, matching the paper.
package sql

import (
	"fmt"
	"strings"
	"unicode"
)

type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokKeyword
	tokNumber
	tokString
	tokSymbol // punctuation and operators
)

type token struct {
	kind tokenKind
	text string // a keyword's is the keywords table's string; an identifier's as written
}

func (t token) isSymbol(s string) bool { return t.kind == tokSymbol && t.text == s }

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

// keywords maps each keyword, upper-case, to itself: a keyword token's
// text is this table's string, so lexing one allocates nothing.
var keywords = func() map[string]string {
	m := make(map[string]string)
	for _, kw := range []string{
		"CREATE", "TABLE", "MATERIALIZED", "VIEW", "AS", "SELECT", "DISTINCT", "FROM",
		"WHERE", "AND", "OR", "NOT", "UNION", "ALL", "EXCEPT", "MONUS", "INSERT",
		"INTO", "VALUES", "DELETE", "REFRESH", "PROPAGATE", "PARTIAL", "IMMEDIATE", "DEFERRED",
		"LOGGED", "DIFFERENTIAL", "COMBINED", "NULL", "TRUE", "FALSE", "INT", "FLOAT", "STRING",
		"BOOL", "DROP", "SHOW", "TABLES", "VIEWS", "MIN", "MAX", "GROUP", "BY", "ORDER", "ASC",
		"DESC", "LIMIT", "EXPLAIN", "RECOMPUTE", "INVARIANT", "CHECK",
	} {
		m[kw] = kw
	}
	return m
}()

// maxKeyword is the length of the longest keyword (DIFFERENTIAL): a
// longer word is an identifier without a lookup.
const maxKeyword = 12

// keyword returns the keyword word spells in any case of its ASCII
// letters, and whether it is one. The word is upper-cased into a stack
// buffer, byte by byte: only a-z change, so a word with a non-ASCII
// byte stays one no keyword equals.
func keyword(word string) (string, bool) {
	if len(word) > maxKeyword {
		return "", false
	}
	var buf [maxKeyword]byte
	up := buf[:len(word)]
	for i := 0; i < len(word); i++ {
		c := word[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		up[i] = c
	}
	kw, ok := keywords[string(up)]
	return kw, ok
}

// lex tokenizes the input. It returns a descriptive error with a byte
// position on malformed input. The token slice is its one allocation
// (beside a string literal's text): it is sized for a token per two
// input bytes, which a statement separated by ", " or spaces does not
// outgrow, every other token's text is a slice of the input or a
// keyword's own string, and a keyword is recognized without a copy.
func lex(input string) ([]token, error) {
	n := len(input)
	toks := make([]token, 0, n/2+2)
	i := 0
	for i < n {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < n && input[i+1] == '-': // comment to EOL
			for i < n && input[i] != '\n' {
				i++
			}
		case unicode.IsLetter(rune(c)) || c == '_':
			start := i
			for i < n && (unicode.IsLetter(rune(input[i])) || unicode.IsDigit(rune(input[i])) || input[i] == '_') {
				i++
			}
			word := input[start:i]
			if kw, ok := keyword(word); ok {
				toks = append(toks, token{kind: tokKeyword, text: kw})
			} else {
				toks = append(toks, token{kind: tokIdent, text: word})
			}
		case unicode.IsDigit(rune(c)):
			start := i
			seenDot := false
			for i < n && (unicode.IsDigit(rune(input[i])) || (input[i] == '.' && !seenDot)) {
				if input[i] == '.' {
					seenDot = true
				}
				i++
			}
			toks = append(toks, token{kind: tokNumber, text: input[start:i]})
		case c == '\'':
			i++
			var sb strings.Builder
			closed := false
			for i < n {
				if input[i] == '\'' {
					if i+1 < n && input[i+1] == '\'' { // escaped quote
						sb.WriteByte('\'')
						i += 2
						continue
					}
					closed = true
					i++
					break
				}
				sb.WriteByte(input[i])
				i++
			}
			if !closed {
				return nil, fmt.Errorf("sql: unterminated string literal at byte %d", i)
			}
			toks = append(toks, token{kind: tokString, text: sb.String()})
		case strings.ContainsRune("(),*.=<>!+-/;", rune(c)):
			// two-char operators
			if i+1 < n {
				two := input[i : i+2]
				if two == "<=" || two == ">=" || two == "!=" || two == "<>" {
					toks = append(toks, token{kind: tokSymbol, text: two})
					i += 2
					continue
				}
			}
			toks = append(toks, token{kind: tokSymbol, text: input[i : i+1]})
			i++
		default:
			return nil, fmt.Errorf("sql: unexpected character %q at byte %d", c, i)
		}
	}
	toks = append(toks, token{kind: tokEOF})
	return toks, nil
}
