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

// Keyword is a reserved word's upper-cased spelling and the terminal it
// scans to.
type Keyword struct {
	Text string
	Name string
	ID   int32
}

// KeywordTable finds a product's reserved words by hash. Slots is an
// open-addressing ring of power-of-two length, probed linearly from a
// spelling's hash (hashWord): 0 marks an empty slot and i+1 the keyword
// Words[i]. At most half the slots are filled, so every probe ends at an
// empty slot. NewKeywordTable builds it; a generated parser declares it as
// a literal.
type KeywordTable struct {
	Words []Keyword
	Slots []uint16
	// MaxLen is the longest spelling in bytes; an ASCII word longer than
	// it cannot be a keyword.
	MaxLen int
}

// NewKeywordTable builds the table over words, whose spellings must be
// upper-cased and distinct. Words keeps their order, so the same words in
// the same order always build the same table.
func NewKeywordTable(words []Keyword) KeywordTable {
	size := 1
	for size < 2*len(words) {
		size <<= 1
	}
	t := KeywordTable{Words: words, Slots: make([]uint16, size)}
	mask := uint32(size - 1)
	for i, w := range words {
		j := home(hashWord(w.Text), mask)
		for t.Slots[j] != 0 {
			j = (j + 1) & mask
		}
		t.Slots[j] = uint16(i + 1)
		t.MaxLen = max(t.MaxLen, len(w.Text))
	}
	return t
}

// find returns the terminal of the keyword spelled word with its ASCII
// letters upper-cased, given h, the hash of that spelling.
func (t *KeywordTable) find(word string, h uint32) (Terminal, bool) {
	if len(t.Slots) == 0 {
		return Terminal{}, false
	}
	mask := uint32(len(t.Slots) - 1)
	for j := home(h, mask); t.Slots[j] != 0; j = (j + 1) & mask {
		k := &t.Words[t.Slots[j]-1]
		if len(k.Text) == len(word) && equalUpper(word, k.Text) {
			return Terminal{Name: k.Name, ID: k.ID}, true
		}
	}
	return Terminal{}, false
}

// FNV-1a, 32-bit: the keyword hash, computed byte by byte as a word is
// scanned.
const (
	hashOffset = 2166136261
	hashPrime  = 16777619
)

// hashWord hashes an upper-cased spelling the way scanWord hashes a word.
func hashWord(s string) uint32 {
	h := uint32(hashOffset)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * hashPrime
	}
	return h
}

// home is the slot a probe for hash h starts at, folding the well-mixed
// high bits into the masked low ones.
func home(h, mask uint32) uint32 { return (h ^ h>>16) & mask }

// equalUpper reports whether word, its ASCII letters upper-cased, equals
// upper, a string of the same length.
func equalUpper(word, upper string) bool {
	for i := 0; i < len(word); i++ {
		c := word[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		if c != upper[i] {
			return false
		}
	}
	return true
}

// wordByte maps each byte below utf8.RuneSelf that can continue a word —
// a letter, a digit or '_' — to its upper-case form, and every other byte
// to 0, so one load both classifies a word byte and folds it for the
// keyword hash. The bytes that can also start a word, letters and '_',
// are exactly those that map above '9'.
var wordByte = func() (t [utf8.RuneSelf]byte) {
	for c := byte('0'); c <= '9'; c++ {
		t[c] = c
	}
	for c := byte('A'); c <= 'Z'; c++ {
		t[c], t[c+'a'-'A'] = c, c
	}
	t['_'] = '_'
	return t
}()

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

// advanceTo moves the scan to byte offset end, counting the lines and
// columns (one per byte) it passes.
func (s *scanState) advanceTo(end int) {
	seg := s.src[s.pos:end]
	if nl := strings.LastIndexByte(seg, '\n'); nl >= 0 {
		s.line += strings.Count(seg, "\n")
		s.col = len(seg) - nl
	} else {
		s.col += len(seg)
	}
	s.pos = end
}

func (s *scanState) errAt(off, line, col int, format string, args ...any) error {
	return &ScanError{Line: line, Col: col, Off: off, Resume: s.pos, Msg: fmt.Sprintf(format, args...)}
}

func isDigitByte(c byte) bool { return c >= '0' && c <= '9' }

// startsWord reports whether a word starts at src[i]: an ASCII letter or
// '_', or a non-ASCII letter. A truncated multi-byte sequence decodes to
// utf8.RuneError, which is no letter.
func startsWord(src string, i int) bool {
	if c := src[i]; c < utf8.RuneSelf {
		return wordByte[c] > '9'
	}
	r, _ := utf8.DecodeRuneInString(src[i:])
	return unicode.IsLetter(r)
}

// keyword resolves a scanned word against the keyword table. An ASCII
// word is looked up by the hash scanWord folded into h, and only if it is
// no longer than the longest keyword; any other word is upper-cased with
// strings.ToUpper (allocating, rare), where no length cutoff applies
// because upper-casing can shrink a word (ſ→S).
func (p *Parser) keyword(word string, h uint32, ascii bool) (Terminal, bool) {
	if ascii {
		if len(word) > p.Keywords.MaxLen {
			return Terminal{}, false
		}
		return p.Keywords.find(word, h)
	}
	up := strings.ToUpper(word)
	return p.Keywords.find(up, hashWord(up))
}

// ScanFrom appends the tokens of src from byte offset off — whose 1-based
// line and column the caller supplies (1, 1 for offset 0) — to toks,
// stopping after limit tokens when limit is positive. On a lexical error
// the tokens scanned before it are returned with the *ScanError, whose Off
// and Resume tell a recovering caller where scanning can restart. Token
// offsets are absolute within src, and tokens reference it. Once toks has
// warmed up, a scan allocates nothing.
func (p *Parser) ScanFrom(src string, off, line, col, limit int, toks []Token) ([]Token, error) {
	toks, _, err := p.scan(src, off, line, col, limit, toks, nil, false)
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
	r.toks, r.ids, err = p.scan(src, off, line, col, 0, r.toks, r.ids, true)
	return len(r.toks) - n, err
}

// scan appends at most limit tokens (any number when limit <= 0) to toks
// and, when stamp is set, their ids to ids. A token's text is always the
// source it spans.
func (p *Parser) scan(src string, off, line, col, limit int, toks []Token, ids []int32, stamp bool) ([]Token, []int32, error) {
	s := &scanState{src: src, pos: off, line: line, col: col}
	stop := -1
	if limit > 0 {
		stop = len(toks) + limit
	}
	cls := &p.Classes
	for len(toks) != stop {
		if err := s.skipTrivia(); err != nil {
			return toks, ids, err
		}
		if s.pos >= len(src) {
			return toks, ids, nil
		}
		startOff, line, col := s.pos, s.line, s.col
		c := src[s.pos]
		var t Terminal
		switch {
		case (c == 'X' || c == 'x') && s.pos+1 < len(src) && src[s.pos+1] == '\'' && cls.Binary.Name != "":
			s.pos++
			s.col++
			if err := scanQuoted(s, '\'', "binary string literal", startOff, line, col); err != nil {
				return toks, ids, err
			}
			t = cls.Binary
		case startsWord(src, s.pos):
			var err error
			if t, err = p.word(s); err != nil {
				return toks, ids, err
			}
		case isDigitByte(c) || (c == '.' && s.pos+1 < len(src) && isDigitByte(src[s.pos+1])):
			switch isInt := scanNumber(s); {
			case isInt && cls.Integer.Name != "":
				t = cls.Integer
			case cls.Number.Name != "":
				t = cls.Number
			default:
				return toks, ids, s.errAt(startOff, line, col, "numeric literals not enabled in this dialect")
			}
		case c == '\'':
			if err := scanQuoted(s, '\'', "string literal", startOff, line, col); err != nil {
				return toks, ids, err
			}
			if t = cls.String; t.Name == "" {
				return toks, ids, s.errAt(startOff, line, col, "string literals not enabled in this dialect")
			}
		case c == '"':
			if err := scanQuoted(s, '"', "delimited identifier", startOff, line, col); err != nil {
				return toks, ids, err
			}
			if t = cls.Delim; t.Name == "" {
				t = cls.Ident
			}
			if t.Name == "" {
				return toks, ids, s.errAt(startOff, line, col, "delimited identifiers not enabled in this dialect")
			}
		case c == ':' && s.pos+1 < len(src) && startsWord(src, s.pos+1) && cls.Host.Name != "":
			s.pos++
			s.col++
			scanWord(s)
			t = cls.Host
		case c == '?' && cls.Dynamic.Name != "":
			s.pos++
			s.col++
			t = cls.Dynamic
		default:
			matched := false
			for _, pu := range p.Puncts[c] {
				if strings.HasPrefix(src[s.pos:], pu.Text) {
					s.pos += len(pu.Text)
					s.col += len(pu.Text)
					t, matched = Terminal{Name: pu.Name, ID: pu.ID}, true
					break
				}
			}
			if !matched {
				ch, _ := utf8.DecodeRuneInString(src[s.pos:])
				return toks, ids, s.errAt(startOff, line, col, "unexpected character %q", ch)
			}
		}
		toks = append(toks, Token{Name: t.Name, Text: src[startOff:s.pos], Line: line, Col: col, Off: startOff, End: s.pos})
		if stamp {
			ids = append(ids, t.ID)
		}
	}
	return toks, ids, nil
}

// skipTrivia skips whitespace and comments. Punctuation spellings never
// start a comment: "--" and "/*" always do.
func (s *scanState) skipTrivia() error {
	for s.pos < len(s.src) {
		switch s.src[s.pos] {
		case ' ', '\t', '\r':
			s.pos++
			s.col++
			continue
		case '\n':
			s.pos++
			s.line++
			s.col = 1
			continue
		case '-':
			if s.pos+1 < len(s.src) && s.src[s.pos+1] == '-' {
				end := strings.IndexByte(s.src[s.pos:], '\n')
				if end < 0 {
					end = len(s.src) - s.pos
				}
				s.col += end
				s.pos += end
				continue
			}
		case '/':
			if s.pos+1 < len(s.src) && s.src[s.pos+1] == '*' {
				startOff, startLine, startCol := s.pos, s.line, s.col
				end := strings.Index(s.src[s.pos+2:], "*/")
				if end < 0 {
					// Scanning stops one byte short of the end, where no
					// "*/" fits any more.
					s.advanceTo(max(s.pos+2, len(s.src)-1))
					return s.errAt(startOff, startLine, startCol, "unterminated block comment")
				}
				s.advanceTo(s.pos + 2 + end + 2)
				continue
			}
		}
		return nil
	}
	return nil
}

// word scans a word at s.pos, which startsWord accepted, and resolves it
// to a keyword or, failing that, an identifier.
func (p *Parser) word(s *scanState) (Terminal, error) {
	startOff, line, col := s.pos, s.line, s.col
	word, h, ascii := scanWord(s)
	if k, ok := p.keyword(word, h, ascii); ok {
		return k, nil
	}
	if p.Classes.Ident.Name == "" {
		return Terminal{}, s.errAt(startOff, line, col, "unknown word %q (identifiers not enabled in this dialect)", word)
	}
	return p.Classes.Ident, nil
}

// scanQuoted consumes a quoted lexeme (a doubled quote escapes it). An
// unterminated one is reported at the token's start — for X'..' the X —
// naming where the input ran out.
func scanQuoted(s *scanState, q byte, what string, startOff, startLine, startCol int) error {
	i := s.pos + 1
	for {
		j := strings.IndexByte(s.src[i:], q)
		if j < 0 {
			s.advanceTo(len(s.src))
			return s.errAt(startOff, startLine, startCol,
				"unterminated %s: reached end of input at %d:%d", what, s.line, s.col)
		}
		i += j + 1
		if i < len(s.src) && s.src[i] == q {
			i++
			continue
		}
		s.advanceTo(i)
		return nil
	}
}

// scanNumber consumes a numeric literal and reports whether it is an
// integer.
func scanNumber(s *scanState) bool {
	src, i := s.src, s.pos
	isInt := true
	for i < len(src) && isDigitByte(src[i]) {
		i++
	}
	if i < len(src) && src[i] == '.' && !(i+1 < len(src) && src[i+1] == '.') { // not 1..2
		isInt = false
		i++
		for i < len(src) && isDigitByte(src[i]) {
			i++
		}
	}
	if i < len(src) && (src[i] == 'e' || src[i] == 'E') {
		j := i + 1
		if j < len(src) && (src[j] == '+' || src[j] == '-') {
			j++
		}
		if j < len(src) && isDigitByte(src[j]) {
			isInt = false
			for i = j; i < len(src) && isDigitByte(src[i]); i++ {
			}
		}
	}
	s.col += i - s.pos
	s.pos = i
	return isInt
}

// scanWord consumes a word: ASCII bytes are classified and upper-cased by
// wordByte and hashed as they pass, and runes are decoded only at bytes
// of utf8.RuneSelf or above. It returns the word, the hash of its
// upper-cased form and whether it is ASCII; the hash is meaningless for a
// non-ASCII word. A word holds no newline, so the column advances by its
// length.
func scanWord(s *scanState) (word string, h uint32, ascii bool) {
	src, i := s.src, s.pos
	h, ascii = hashOffset, true
	for i < len(src) {
		if c := src[i]; c < utf8.RuneSelf {
			u := wordByte[c]
			if u == 0 {
				break
			}
			h = (h ^ uint32(u)) * hashPrime
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(src[i:])
		if !unicode.IsLetter(r) && !unicode.IsDigit(r) {
			break
		}
		ascii = false
		i += size
	}
	word = src[s.pos:i]
	s.col += i - s.pos
	s.pos = i
	return word, h, ascii
}
