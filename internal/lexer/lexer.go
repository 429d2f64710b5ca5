// Package lexer provides the configurable SQL scanner behind the
// interpreted engine, statement recovery and streaming. It is the shared
// runtime's scanner (internal/codegen/rt) — the one the generated parsers
// run too — over tables that Tables builds from a token set. It counts
// nothing: engine work is counted at the engine seam (internal/engine).
//
// The paper separates grammars from token files and composes both; the
// scanner is therefore *configurable*: it is constructed from a composed
// grammar.TokenSet and recognizes exactly the keywords, punctuation and
// lexical classes that the selected features contribute. In a scaled-down
// dialect, unselected keywords are not reserved — `SELECT cube FROM t` is
// fine in a dialect without CUBE, exactly the customizability the paper
// targets for embedded systems.
//
// Lexical classes (grammar.Class token kinds) follow SQL:2003 Part 2
// Section 5 (lexical elements): regular and delimited identifiers, exact
// and approximate numeric literals, character string literals with ”
// escapes, binary string literals X'...', and host parameters.
package lexer

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"sqlspl/internal/codegen/rt"
	"sqlspl/internal/grammar"
)

// Token is one scanned lexical element. It is the runtime's token type
// (package rt), shared with the generated parsers.
type Token = rt.Token

// Class names understood by the scanner. A token set may bind any terminal
// name to one of these classes (e.g. IDENTIFIER : <identifier> ;).
const (
	ClassIdentifier          = "identifier"
	ClassDelimitedIdentifier = "delimited_identifier"
	ClassNumber              = "number"            // exact or approximate numeric literal
	ClassInteger             = "integer"           // digits only
	ClassString              = "string"            // 'character string literal'
	ClassBinaryString        = "binary_string"     // X'hex'
	ClassHostParameter       = "host_parameter"    // :name
	ClassDynamicParameter    = "dynamic_parameter" // ?
)

// Lexer scans SQL text under a specific token configuration. Construct
// with New; a Lexer is safe for concurrent use.
type Lexer struct {
	rt *rt.Parser
}

// New builds a scanner for the composed token set. It is not tied to a
// grammar, so its terminals carry no interned ids.
func New(ts *grammar.TokenSet) (*Lexer, error) {
	p, err := Tables(ts, nil)
	if err != nil {
		return nil, err
	}
	return Over(p), nil
}

// Over returns the Lexer that scans with p's tables, as Tables built them.
func Over(p *rt.Parser) *Lexer { return &Lexer{rt: p} }

// Tables turns a token set into the shared runtime's scanner tables and
// diagnostic display names: the one place a token set becomes a scanner.
// The interpreted parser completes the returned parser with its grammar,
// and codegen prints its tables into a generated parser. Terminals are
// numbered by their index in ids — a grammar's ReferencedTokens — and
// those absent from it get -1, so prediction never matches them.
//
// A keyword spelling or lexical class bound to two terminals, an unknown
// class and an empty punctuation spelling are configuration errors
// (composition should have caught them, but defend anyway).
func Tables(ts *grammar.TokenSet, ids []string) (*rt.Parser, error) {
	idOf := make(map[string]int32, len(ids))
	for i, name := range ids {
		idOf[name] = int32(i)
	}
	term := func(name string) rt.Terminal {
		if id, ok := idOf[name]; ok {
			return rt.Terminal{Name: name, ID: id}
		}
		return rt.Terminal{Name: name, ID: -1}
	}
	p := &rt.Parser{Displays: make(map[string]string, ts.Len())}
	keywords := map[string]string{}
	var words []rt.Keyword
	classes := map[string]rt.Terminal{}
	var puncts []rt.Punct
	for _, d := range ts.Defs() {
		switch d.Kind {
		case grammar.Keyword:
			up := strings.ToUpper(d.Text)
			if prev, ok := keywords[up]; ok {
				return nil, fmt.Errorf("lexer: keyword %q bound to both %s and %s", up, prev, d.Name)
			}
			keywords[up] = d.Name
			t := term(d.Name)
			words = append(words, rt.Keyword{Text: up, Name: t.Name, ID: t.ID})
			p.Displays[d.Name] = up
		case grammar.Punct:
			if d.Text == "" {
				return nil, fmt.Errorf("lexer: empty punctuation spelling for token %s", d.Name)
			}
			t := term(d.Name)
			puncts = append(puncts, rt.Punct{Text: d.Text, Name: t.Name, ID: t.ID})
			p.Displays[d.Name] = "'" + d.Text + "'"
		case grammar.Class:
			if prev, ok := classes[d.Text]; ok {
				return nil, fmt.Errorf("lexer: class <%s> bound to both %s and %s", d.Text, prev.Name, d.Name)
			}
			if !validClass(d.Text) {
				return nil, fmt.Errorf("lexer: unknown lexical class <%s> for token %s", d.Text, d.Name)
			}
			classes[d.Text] = term(d.Name)
			p.Displays[d.Name] = d.Name
		}
	}
	if len(words) > math.MaxUint16 {
		return nil, fmt.Errorf("lexer: %d keywords exceed the scanner's table of %d", len(words), math.MaxUint16)
	}
	// Keywords in terminal-name order, so a token set always builds the
	// same table.
	slices.SortFunc(words, func(a, b rt.Keyword) int { return cmp.Compare(a.Name, b.Name) })
	p.Keywords = rt.NewKeywordTable(words)
	// Each first byte's candidates, longest first for maximal munch.
	slices.SortStableFunc(puncts, func(a, b rt.Punct) int { return comparePunct(a.Text, b.Text) })
	for _, pu := range puncts {
		p.Puncts[pu.Text[0]] = append(p.Puncts[pu.Text[0]], pu)
	}
	p.Classes = rt.Classes{
		Ident:   classes[ClassIdentifier],
		Delim:   classes[ClassDelimitedIdentifier],
		Number:  classes[ClassNumber],
		Integer: classes[ClassInteger],
		String:  classes[ClassString],
		Binary:  classes[ClassBinaryString],
		Host:    classes[ClassHostParameter],
		Dynamic: classes[ClassDynamicParameter],
	}
	return p, nil
}

// comparePunct orders punctuation spellings longest first, then by text.
func comparePunct(a, b string) int {
	if c := cmp.Compare(len(b), len(a)); c != 0 {
		return c
	}
	return cmp.Compare(a, b)
}

func validClass(name string) bool {
	switch name {
	case ClassIdentifier, ClassDelimitedIdentifier, ClassNumber, ClassInteger,
		ClassString, ClassBinaryString, ClassHostParameter, ClassDynamicParameter:
		return true
	}
	return false
}

// Error is a scan error with source position; it is the runtime's scan
// error type (package rt), which the generated parsers return too.
type Error = rt.ScanError

// Scan tokenizes src completely. SQL comments (-- line and /* block */) and
// whitespace are skipped. Keywords are matched case-insensitively; a word
// that is not a configured keyword becomes an identifier if the token set
// defines the identifier class, otherwise scanning fails — in a scaled-down
// dialect an unknown word in keyword position is a lexical error, mirroring
// the paper's "parse precisely the selected features".
func (l *Lexer) Scan(src string) ([]Token, error) {
	out, err := l.ScanInto(src, nil)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ScanInto is Scan with a caller-supplied token buffer: tokens are appended
// to buf (usually buf[:0] of a pooled slice) and the possibly-grown slice is
// returned. Once the buffer has warmed up to the working token count, a scan
// performs zero heap allocations. Tokens reference src; they are valid as
// long as src is.
func (l *Lexer) ScanInto(src string, buf []Token) ([]Token, error) {
	out, err := l.rt.ScanFrom(src, 0, 1, 1, 0, buf)
	if err != nil {
		// Emptied but capacity-preserving, so pooled callers keep any
		// growth the partial scan paid for.
		return out[:len(buf)], err
	}
	return out, nil
}

// ScanPartialFrom scans src beginning at byte offset off — whose 1-based
// line/column the caller supplies (1, 1 for offset 0) — appending tokens to
// buf, at most limit of them when limit is positive. Unlike ScanInto it
// does not discard progress on a lexical error: the tokens scanned before
// the error are returned alongside it, and the *Error's Off/Resume offsets
// tell a recovering caller where scanning can restart. The streaming
// scanner (internal/stream) uses this to cut statements as input arrives,
// a bounded number of tokens at a time. Token offsets are absolute within
// src regardless of off.
func (l *Lexer) ScanPartialFrom(src string, off, line, col, limit int, buf []Token) ([]Token, error) {
	return l.rt.ScanFrom(src, off, line, col, limit, buf)
}

// Puncts returns the punctuation spellings of this scanner configuration,
// sorted longest-first (the scan order). Used by the differential oracle to
// decide whether a construct is within a comparator's lexical surface.
func (l *Lexer) Puncts() []string {
	var out []string
	for _, bucket := range l.rt.Puncts {
		for _, pu := range bucket {
			out = append(out, pu.Text)
		}
	}
	slices.SortStableFunc(out, comparePunct)
	return out
}

// Keywords returns the reserved words of this scanner configuration, sorted.
func (l *Lexer) Keywords() []string { return l.rt.ReservedWords() }
