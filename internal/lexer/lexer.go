// Package lexer provides the configurable SQL scanner behind the
// interpreted engine, statement recovery and streaming. (Generated parsers
// scan with the equivalent table-driven scanner in internal/codegen/rt.)
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
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"unicode"
	"unicode/utf8"

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

// Lexer scans SQL text under a specific token configuration.
// Construct with New; a Lexer is safe for concurrent use.
type Lexer struct {
	keywords map[string]string // upper-cased spelling -> token name
	puncts   []punct           // sorted longest-first for maximal munch
	classes  map[string]string // class name -> token name

	// maxKw is the longest keyword spelling: words longer than it cannot be
	// keywords, which lets the ASCII fold path reject without a map lookup.
	maxKw int
	// byFirst indexes puncts by first byte (longest-first within a bucket),
	// so the scanner tries only the spellings that can possibly match
	// instead of the whole longest-first list.
	byFirst [256][]punct

	// Cached class bindings ("" when the class is not configured), hoisted
	// out of the per-token map lookups on the scan hot path.
	clsIdent, clsDelim, clsNumber, clsInteger string
	clsString, clsBinary, clsHost, clsDynamic string
}

type punct struct {
	text string
	name string
}

// New builds a scanner for the composed token set. Multiple terminal names
// bound to the same keyword spelling or punctuation are a configuration
// error (composition should have caught it, but defend anyway).
func New(ts *grammar.TokenSet) (*Lexer, error) {
	l := &Lexer{
		keywords: map[string]string{},
		classes:  map[string]string{},
	}
	for _, d := range ts.Defs() {
		switch d.Kind {
		case grammar.Keyword:
			up := strings.ToUpper(d.Text)
			if prev, ok := l.keywords[up]; ok && prev != d.Name {
				return nil, fmt.Errorf("lexer: keyword %q bound to both %s and %s", up, prev, d.Name)
			}
			l.keywords[up] = d.Name
		case grammar.Punct:
			l.puncts = append(l.puncts, punct{text: d.Text, name: d.Name})
		case grammar.Class:
			if prev, ok := l.classes[d.Text]; ok && prev != d.Name {
				return nil, fmt.Errorf("lexer: class <%s> bound to both %s and %s", d.Text, prev, d.Name)
			}
			if !validClass(d.Text) {
				return nil, fmt.Errorf("lexer: unknown lexical class <%s> for token %s", d.Text, d.Name)
			}
			l.classes[d.Text] = d.Name
		}
	}
	sort.Slice(l.puncts, func(i, j int) bool {
		if len(l.puncts[i].text) != len(l.puncts[j].text) {
			return len(l.puncts[i].text) > len(l.puncts[j].text)
		}
		return l.puncts[i].text < l.puncts[j].text
	})
	for _, p := range l.puncts {
		if p.text == "" {
			return nil, fmt.Errorf("lexer: empty punctuation spelling for token %s", p.name)
		}
		l.byFirst[p.text[0]] = append(l.byFirst[p.text[0]], p)
	}
	for k := range l.keywords {
		if len(k) > l.maxKw {
			l.maxKw = len(k)
		}
	}
	l.clsIdent = l.classes[ClassIdentifier]
	l.clsDelim = l.classes[ClassDelimitedIdentifier]
	l.clsNumber = l.classes[ClassNumber]
	l.clsInteger = l.classes[ClassInteger]
	l.clsString = l.classes[ClassString]
	l.clsBinary = l.classes[ClassBinaryString]
	l.clsHost = l.classes[ClassHostParameter]
	l.clsDynamic = l.classes[ClassDynamicParameter]
	return l, nil
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
// performs zero heap allocations — the variant the parser's pooled runs use
// on the warm serving path. Tokens reference src; they are valid as long as
// src is.
func (l *Lexer) ScanInto(src string, buf []Token) ([]Token, error) {
	out, err := l.ScanPartialFrom(src, 0, 1, 1, buf)
	if err != nil {
		// Emptied but capacity-preserving, so pooled callers keep any
		// growth the partial scan paid for.
		return out[:len(buf)], err
	}
	return out, nil
}

// ScanPartialFrom scans src beginning at byte offset off — whose 1-based
// line/column the caller supplies (1, 1 for offset 0) — appending tokens to
// buf. Unlike ScanInto it does not discard progress on a lexical error: the
// tokens scanned before the error are returned alongside it, and the
// *Error's Off/Resume offsets tell a recovering caller where scanning can
// restart. Statement-level error recovery (internal/parser) uses this to
// keep diagnosing the statements around a broken lexeme. Token offsets are
// absolute within src regardless of off.
func (l *Lexer) ScanPartialFrom(src string, off, line, col int, buf []Token) ([]Token, error) {
	s := scanner{l: l, src: src, pos: off, line: line, col: col}
	hot.scans.Add(1)
	out := buf
	for {
		tok, ok, err := s.next()
		if err != nil {
			hot.errors.Add(1)
			return out, err
		}
		if !ok {
			hot.tokens.Add(uint64(len(out) - len(buf)))
			return out, nil
		}
		out = append(out, tok)
	}
}

// Counters is a snapshot of process-wide scanner counters, aggregated
// across every Lexer. Like parser.Counters it exists for metrics scraping:
// the serving layer samples it with a telemetry CounterFunc, so the lexer
// itself depends on nothing. Fields are individually atomic and monotone;
// the snapshot is not one consistent cut. Tokens is added once per
// completed scan, not per token, keeping the hot-path cost to two atomic
// adds per Scan.
type Counters struct {
	// Scans counts Scan and ScanInto calls.
	Scans uint64
	// Errors counts scans that failed with a lexical error.
	Errors uint64
	// Tokens counts tokens produced by successful scans.
	Tokens uint64
}

var hot struct {
	scans, errors, tokens atomic.Uint64
}

// HotCounters returns the current process-wide scan counters.
func HotCounters() Counters {
	return Counters{
		Scans:  hot.scans.Load(),
		Errors: hot.errors.Load(),
		Tokens: hot.tokens.Load(),
	}
}

type scanner struct {
	l    *Lexer
	src  string
	pos  int
	line int
	col  int
}

// advance consumes n bytes, maintaining line/col.
func (s *scanner) advance(n int) {
	for i := 0; i < n; i++ {
		if s.src[s.pos] == '\n' {
			s.line++
			s.col = 1
		} else {
			s.col++
		}
		s.pos++
	}
}

func (s *scanner) skipSpaceAndComments() error {
	for s.pos < len(s.src) {
		c := s.src[s.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			s.advance(1)
		case c == '-' && s.pos+1 < len(s.src) && s.src[s.pos+1] == '-':
			for s.pos < len(s.src) && s.src[s.pos] != '\n' {
				s.advance(1)
			}
		case c == '/' && s.pos+1 < len(s.src) && s.src[s.pos+1] == '*':
			startOff, startLine, startCol := s.pos, s.line, s.col
			s.advance(2)
			for {
				if s.pos+1 >= len(s.src) {
					return s.errAt(startOff, startLine, startCol, "unterminated block comment")
				}
				if s.src[s.pos] == '*' && s.src[s.pos+1] == '/' {
					s.advance(2)
					break
				}
				s.advance(1)
			}
		default:
			return nil
		}
	}
	return nil
}

func (s *scanner) next() (Token, bool, error) {
	if err := s.skipSpaceAndComments(); err != nil {
		return Token{}, false, err
	}
	if s.pos >= len(s.src) {
		return Token{}, false, nil
	}
	startOff, startLine, startCol := s.pos, s.line, s.col
	c := s.src[s.pos]

	mk := func(name, text string) Token {
		return Token{Name: name, Text: text, Line: startLine, Col: startCol, Off: startOff, End: s.pos}
	}

	switch {
	case c == '\'':
		text, err := s.scanQuoted('\'', "string literal", startOff, startLine, startCol)
		if err != nil {
			return Token{}, false, err
		}
		if s.l.clsString == "" {
			return Token{}, false, s.errAt(startOff, startLine, startCol, "string literals not enabled in this dialect")
		}
		return mk(s.l.clsString, text), true, nil

	case (c == 'X' || c == 'x') && s.pos+1 < len(s.src) && s.src[s.pos+1] == '\'' && s.l.clsBinary != "":
		start := s.pos
		s.advance(1)
		if _, err := s.scanQuoted('\'', "binary string literal", startOff, startLine, startCol); err != nil {
			return Token{}, false, err
		}
		return mk(s.l.clsBinary, s.src[start:s.pos]), true, nil

	case c == '"':
		text, err := s.scanQuoted('"', "delimited identifier", startOff, startLine, startCol)
		if err != nil {
			return Token{}, false, err
		}
		name := s.l.clsDelim
		if name == "" {
			// Fall back to the plain identifier class when configured: many
			// scaled-down dialects fold both identifier forms together.
			name = s.l.clsIdent
		}
		if name == "" {
			return Token{}, false, s.errAt(startOff, startLine, startCol, "delimited identifiers not enabled in this dialect")
		}
		return mk(name, text), true, nil

	case c >= '0' && c <= '9' || (c == '.' && s.pos+1 < len(s.src) && isDigit(s.src[s.pos+1])):
		text, isInt := s.scanNumber()
		if isInt && s.l.clsInteger != "" {
			return mk(s.l.clsInteger, text), true, nil
		}
		if s.l.clsNumber != "" {
			return mk(s.l.clsNumber, text), true, nil
		}
		return Token{}, false, s.errAt(startOff, startLine, startCol, "numeric literals not enabled in this dialect")

	case c == ':' && s.pos+1 < len(s.src) && isIdentStartByte(s.src[s.pos+1:]) && s.l.clsHost != "":
		start := s.pos
		s.advance(1)
		s.scanWord()
		return mk(s.l.clsHost, s.src[start:s.pos]), true, nil

	case c == '?' && s.l.clsDynamic != "":
		s.advance(1)
		return mk(s.l.clsDynamic, "?"), true, nil

	case isIdentStartByte(s.src[s.pos:]):
		word := s.scanWord()
		if name, ok := s.l.keyword(word); ok {
			return mk(name, word), true, nil
		}
		if s.l.clsIdent != "" {
			return mk(s.l.clsIdent, word), true, nil
		}
		return Token{}, false, s.errAt(startOff, startLine, startCol, "unknown word %q (identifiers not enabled in this dialect)", word)

	default:
		for _, p := range s.l.byFirst[c] {
			if strings.HasPrefix(s.src[s.pos:], p.text) {
				s.advance(len(p.text))
				return mk(p.name, p.text), true, nil
			}
		}
		r, _ := utf8.DecodeRuneInString(s.src[s.pos:])
		return Token{}, false, s.errAt(startOff, startLine, startCol, "unexpected character %q", r)
	}
}

// maxFoldLen bounds the stack buffer of the ASCII keyword fold; SQL
// keywords are far shorter, and longer words take the Unicode path.
const maxFoldLen = 64

// keyword resolves word against the configured keyword set. The common
// case — an ASCII word — is folded to upper case in a stack buffer and
// looked up without allocating (the compiler elides the string conversion
// in a direct map index). Non-ASCII words fall back to the full Unicode
// upper-case fold: length cutoffs are not sound there, since Unicode
// uppercasing can shrink a word (ſ→S, ı→I).
func (l *Lexer) keyword(word string) (string, bool) {
	if len(word) <= maxFoldLen {
		var buf [maxFoldLen]byte
		ascii := true
		for i := 0; i < len(word); i++ {
			c := word[i]
			if c >= utf8.RuneSelf {
				ascii = false
				break
			}
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			buf[i] = c
		}
		if ascii {
			if len(word) > l.maxKw {
				return "", false
			}
			name, ok := l.keywords[string(buf[:len(word)])]
			return name, ok
		}
	}
	name, ok := l.keywords[strings.ToUpper(word)]
	return name, ok
}

// errAt builds a scan error anchored at byte offset off (with its 1-based
// line/col); Resume records how far the scanner got, for recovering callers.
func (s *scanner) errAt(off, line, col int, format string, args ...any) error {
	return &Error{Line: line, Col: col, Off: off, Resume: s.pos, Msg: fmt.Sprintf(format, args...)}
}

// scanQuoted consumes a quote-delimited lexeme (doubling the quote escapes
// it), returning the raw text including quotes. startOff/startLine/startCol
// are the token's start coordinates — for X'..' binary strings that is the
// X, not the quote — so an unterminated-quote error always points at the
// token the user began, while the message names where the input ran out.
func (s *scanner) scanQuoted(quote byte, what string, startOff, startLine, startCol int) (string, error) {
	start := s.pos
	s.advance(1) // opening quote
	for {
		if s.pos >= len(s.src) {
			return "", s.errAt(startOff, startLine, startCol,
				"unterminated %s: reached end of input at %d:%d", what, s.line, s.col)
		}
		if s.src[s.pos] == quote {
			if s.pos+1 < len(s.src) && s.src[s.pos+1] == quote {
				s.advance(2) // escaped quote
				continue
			}
			s.advance(1)
			return s.src[start:s.pos], nil
		}
		s.advance(1)
	}
}

// scanNumber consumes an exact or approximate numeric literal and reports
// whether it is a plain integer.
func (s *scanner) scanNumber() (string, bool) {
	start := s.pos
	isInt := true
	for s.pos < len(s.src) && isDigit(s.src[s.pos]) {
		s.advance(1)
	}
	if s.pos < len(s.src) && s.src[s.pos] == '.' {
		// Avoid consuming `1..2` style ranges: require digit or end after dot.
		if s.pos+1 < len(s.src) && s.src[s.pos+1] == '.' {
			return s.src[start:s.pos], isInt
		}
		isInt = false
		s.advance(1)
		for s.pos < len(s.src) && isDigit(s.src[s.pos]) {
			s.advance(1)
		}
	}
	if s.pos < len(s.src) && (s.src[s.pos] == 'e' || s.src[s.pos] == 'E') {
		// Exponent must be followed by optional sign and at least one digit.
		j := s.pos + 1
		if j < len(s.src) && (s.src[j] == '+' || s.src[j] == '-') {
			j++
		}
		if j < len(s.src) && isDigit(s.src[j]) {
			isInt = false
			s.advance(j - s.pos)
			for s.pos < len(s.src) && isDigit(s.src[s.pos]) {
				s.advance(1)
			}
		}
	}
	return s.src[start:s.pos], isInt
}

// scanWord consumes an identifier-shaped word.
func (s *scanner) scanWord() string {
	start := s.pos
	for s.pos < len(s.src) {
		r, size := utf8.DecodeRuneInString(s.src[s.pos:])
		if !isIdentPart(r) {
			break
		}
		s.advance(size)
	}
	return s.src[start:s.pos]
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

// isIdentStartByte decodes the first rune of rest and reports whether it
// starts an identifier. Decoding (rather than widening the first byte)
// matters for malformed UTF-8: a truncated multi-byte sequence must not be
// classified as a letter, or the scanner would emit empty identifiers.
func isIdentStartByte(rest string) bool {
	r, size := utf8.DecodeRuneInString(rest)
	if r == utf8.RuneError && size <= 1 {
		return false
	}
	return isIdentStart(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

// Puncts returns the punctuation spellings of this scanner configuration,
// sorted longest-first (the scan order). Used by the differential oracle to
// decide whether a construct is within a comparator's lexical surface.
func (l *Lexer) Puncts() []string {
	out := make([]string, len(l.puncts))
	for i, p := range l.puncts {
		out[i] = p.text
	}
	return out
}

// Keywords returns the reserved words of this scanner configuration, sorted.
func (l *Lexer) Keywords() []string {
	out := make([]string, 0, len(l.keywords))
	for k := range l.keywords {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
