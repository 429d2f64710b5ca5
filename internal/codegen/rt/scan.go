package rt

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Terminal names a grammar terminal together with its generation-time
// interned id (-1 when the grammar never references the terminal). The
// scanner stamps the id on every token it produces, so the parse hot path
// compares small integers and never hashes a token name.
type Terminal struct {
	Name string
	ID   int32
}

// Punct is a punctuation spelling and the terminal it scans to.
type Punct struct {
	Text string
	Name string
	ID   int32
}

// Classes binds the scanner's lexical classes to terminals. A zero
// Terminal (empty Name) means the class is not in the product.
type Classes struct {
	Ident, Delim, Number, Integer, String, Binary, Host, Dynamic Terminal
}

type scanState struct {
	src  string
	pos  int
	line int
	col  int
}

func (s *scanState) advance(n int) {
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

func (s *scanState) errAt(off, line, col int, format string, args ...any) error {
	return &ScanError{Line: line, Col: col, Off: off, Resume: s.pos, Msg: fmt.Sprintf(format, args...)}
}

func isDigitByte(c byte) bool { return c >= '0' && c <= '9' }

func isIdentStartRune(r rune) bool { return r == '_' || unicode.IsLetter(r) }
func isIdentPartRune(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

// identStartsAt decodes the first rune of rest, so a truncated multi-byte
// sequence is never taken for a letter (which would scan an empty word).
func identStartsAt(rest string) bool {
	r, size := utf8.DecodeRuneInString(rest)
	if r == utf8.RuneError && size <= 1 {
		return false
	}
	return isIdentStartRune(r)
}

// maxFoldLen bounds the stack buffer of the ASCII keyword fold.
const maxFoldLen = 64

// keyword resolves word against the keyword table. ASCII words are folded
// to upper case in a stack buffer and looked up without allocating; longer
// or non-ASCII words take the (allocating, rare) Unicode path, where no
// length cutoff applies because upper-casing can shrink a word (ſ→S).
func (p *Parser) keyword(word string) (Terminal, bool) {
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
			if len(word) > p.MaxKeywordLen {
				return Terminal{}, false
			}
			k, ok := p.Keywords[string(buf[:len(word)])]
			return k, ok
		}
	}
	k, ok := p.Keywords[strings.ToUpper(word)]
	return k, ok
}

// ScanFrom appends the tokens of src from byte offset off — whose 1-based
// line and column the caller supplies (1, 1 for offset 0) — to toks. On a
// lexical error the tokens scanned before it are returned with the
// *ScanError, whose Off and Resume tell a recovering caller where scanning
// can restart. Token offsets are absolute within src, and tokens reference
// it. Once toks has warmed up, a scan allocates nothing.
func (p *Parser) ScanFrom(src string, off, line, col int, toks []Token) ([]Token, error) {
	toks, _, err := p.scan(src, off, line, col, toks, nil, false)
	return toks, err
}

// ScanRun is ScanFrom into the run's token buffer, stamping each token's
// interned id for the parse passes. Offset 0 starts the run's tokens
// afresh; a later offset appends to them, so a recovering caller can
// resume after a lexical error. It returns how many tokens it added.
func (p *Parser) ScanRun(r *Run, src string, off, line, col int) (int, error) {
	if off == 0 {
		r.toks, r.ids = r.toks[:0], r.ids[:0]
	}
	n := len(r.toks)
	var err error
	r.toks, r.ids, err = p.scan(src, off, line, col, r.toks, r.ids, true)
	return len(r.toks) - n, err
}

// scan appends tokens to toks and, when stamp is set, their ids to ids.
func (p *Parser) scan(src string, off, line, col int, toks []Token, ids []int32, stamp bool) ([]Token, []int32, error) {
	s := &scanState{src: src, pos: off, line: line, col: col}
	for {
		// Skip whitespace and comments.
		for s.pos < len(s.src) {
			c := s.src[s.pos]
			if c == ' ' || c == '\t' || c == '\r' || c == '\n' {
				s.advance(1)
				continue
			}
			if c == '-' && s.pos+1 < len(s.src) && s.src[s.pos+1] == '-' {
				for s.pos < len(s.src) && s.src[s.pos] != '\n' {
					s.advance(1)
				}
				continue
			}
			if c == '/' && s.pos+1 < len(s.src) && s.src[s.pos+1] == '*' {
				startOff, startLine, startCol := s.pos, s.line, s.col
				s.advance(2)
				for s.pos+1 < len(s.src) && !(s.src[s.pos] == '*' && s.src[s.pos+1] == '/') {
					s.advance(1)
				}
				if s.pos+1 >= len(s.src) {
					return toks, ids, s.errAt(startOff, startLine, startCol, "unterminated block comment")
				}
				s.advance(2)
				continue
			}
			break
		}
		if s.pos >= len(s.src) {
			return toks, ids, nil
		}
		startOff, line, col := s.pos, s.line, s.col
		c := s.src[s.pos]
		mk := func(t Terminal, text string) {
			toks = append(toks, Token{Name: t.Name, Text: text, Line: line, Col: col, Off: startOff, End: s.pos})
			if stamp {
				ids = append(ids, t.ID)
			}
		}
		cls := &p.Classes
		switch {
		case c == '\'':
			text, err := scanQuoted(s, '\'', "string literal", startOff, line, col)
			if err != nil {
				return toks, ids, err
			}
			if cls.String.Name == "" {
				return toks, ids, s.errAt(startOff, line, col, "string literals not enabled in this dialect")
			}
			mk(cls.String, text)
		case (c == 'X' || c == 'x') && s.pos+1 < len(s.src) && s.src[s.pos+1] == '\'' && cls.Binary.Name != "":
			s.advance(1)
			if _, err := scanQuoted(s, '\'', "binary string literal", startOff, line, col); err != nil {
				return toks, ids, err
			}
			mk(cls.Binary, s.src[startOff:s.pos])
		case c == '"':
			text, err := scanQuoted(s, '"', "delimited identifier", startOff, line, col)
			if err != nil {
				return toks, ids, err
			}
			t := cls.Delim
			if t.Name == "" {
				t = cls.Ident
			}
			if t.Name == "" {
				return toks, ids, s.errAt(startOff, line, col, "delimited identifiers not enabled in this dialect")
			}
			mk(t, text)
		case isDigitByte(c) || (c == '.' && s.pos+1 < len(s.src) && isDigitByte(s.src[s.pos+1])):
			text, isInt := scanNumber(s)
			switch {
			case isInt && cls.Integer.Name != "":
				mk(cls.Integer, text)
			case cls.Number.Name != "":
				mk(cls.Number, text)
			default:
				return toks, ids, s.errAt(startOff, line, col, "numeric literals not enabled in this dialect")
			}
		case c == ':' && s.pos+1 < len(s.src) && identStartsAt(s.src[s.pos+1:]) && cls.Host.Name != "":
			s.advance(1)
			scanWord(s)
			mk(cls.Host, s.src[startOff:s.pos])
		case c == '?' && cls.Dynamic.Name != "":
			s.advance(1)
			mk(cls.Dynamic, "?")
		case identStartsAt(s.src[s.pos:]):
			word := scanWord(s)
			if k, ok := p.keyword(word); ok {
				mk(k, word)
			} else if cls.Ident.Name != "" {
				mk(cls.Ident, word)
			} else {
				return toks, ids, s.errAt(startOff, line, col, "unknown word %q (identifiers not enabled in this dialect)", word)
			}
		default:
			matched := false
			for _, pu := range p.Puncts[c] {
				if strings.HasPrefix(s.src[s.pos:], pu.Text) {
					s.advance(len(pu.Text))
					mk(Terminal{Name: pu.Name, ID: pu.ID}, pu.Text)
					matched = true
					break
				}
			}
			if !matched {
				ch, _ := utf8.DecodeRuneInString(s.src[s.pos:])
				return toks, ids, s.errAt(startOff, line, col, "unexpected character %q", ch)
			}
		}
	}
}

// scanQuoted consumes a quoted lexeme (a doubled quote escapes it). An
// unterminated one is reported at the token's start — for X'..' the X —
// naming where the input ran out.
func scanQuoted(s *scanState, q byte, what string, startOff, startLine, startCol int) (string, error) {
	start := s.pos
	s.advance(1)
	for {
		if s.pos >= len(s.src) {
			return "", s.errAt(startOff, startLine, startCol,
				"unterminated %s: reached end of input at %d:%d", what, s.line, s.col)
		}
		if s.src[s.pos] == q {
			if s.pos+1 < len(s.src) && s.src[s.pos+1] == q {
				s.advance(2)
				continue
			}
			s.advance(1)
			return s.src[start:s.pos], nil
		}
		s.advance(1)
	}
}

func scanNumber(s *scanState) (string, bool) {
	start := s.pos
	isInt := true
	for s.pos < len(s.src) && isDigitByte(s.src[s.pos]) {
		s.advance(1)
	}
	if s.pos < len(s.src) && s.src[s.pos] == '.' {
		if s.pos+1 < len(s.src) && s.src[s.pos+1] == '.' { // 1..2
			return s.src[start:s.pos], isInt
		}
		isInt = false
		s.advance(1)
		for s.pos < len(s.src) && isDigitByte(s.src[s.pos]) {
			s.advance(1)
		}
	}
	if s.pos < len(s.src) && (s.src[s.pos] == 'e' || s.src[s.pos] == 'E') {
		j := s.pos + 1
		if j < len(s.src) && (s.src[j] == '+' || s.src[j] == '-') {
			j++
		}
		if j < len(s.src) && isDigitByte(s.src[j]) {
			isInt = false
			s.advance(j - s.pos)
			for s.pos < len(s.src) && isDigitByte(s.src[s.pos]) {
				s.advance(1)
			}
		}
	}
	return s.src[start:s.pos], isInt
}

func scanWord(s *scanState) string {
	start := s.pos
	for s.pos < len(s.src) {
		r, size := utf8.DecodeRuneInString(s.src[s.pos:])
		if !isIdentPartRune(r) {
			break
		}
		s.advance(size)
	}
	return s.src[start:s.pos]
}
