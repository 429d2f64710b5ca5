// Package stream walks arbitrarily large SQL scripts as a sequence of
// statements with bounded memory. The Scanner feeds fixed-size reads
// through lexer.ScanPartialFrom, a bounded number of tokens at a time,
// and yields one Statement per top-level ';' boundary from a reusable
// token buffer, so peak memory is proportional to the largest single
// statement and one read, not the script.
//
// The Scanner is THE segmentation used by the whole system: parser
// statement recovery (internal/parser/recover.go) cuts a rejected script
// into statements with a Scanner over the script itself, so a streamed
// script and a whole-script Diagnose agree on where statements start and
// end by construction.
package stream

// Splitter tracks top-level statement boundaries over a token stream.
// A statement ends at a ';' token at parenthesis depth zero; ';' inside
// parentheses does not split, and ';' inside string literals or comments
// never reaches the splitter because it is part of (or skipped with) the
// enclosing token. Depth is floored at zero so unbalanced ')' noise in a
// broken script cannot swallow later boundaries.
//
// The zero value is ready to use. Reset starts a new statement.
type Splitter struct {
	depth int
}

// Reset clears the paren depth for the start of a new statement.
func (s *Splitter) Reset() { s.depth = 0 }

// Boundary consumes one token's raw text and reports whether that token
// closes a statement: a ';' at parenthesis depth zero.
func (s *Splitter) Boundary(text string) bool {
	switch text {
	case "(":
		s.depth++
	case ")":
		if s.depth > 0 {
			s.depth--
		}
	case ";":
		return s.depth == 0
	}
	return false
}

// nextRawBoundary returns the offset of the first ';' in src at or after
// from (clamped to 0), or -1. It is the raw-byte resynchronization after a
// lexical error, when token-level boundaries are unavailable: the scanner
// skips to the next ';' in the raw source and charges everything before
// it to the failed statement.
func nextRawBoundary(src string, from int) int {
	if from < 0 {
		from = 0
	}
	for i := from; i < len(src); i++ {
		if src[i] == ';' {
			return i
		}
	}
	return -1
}
