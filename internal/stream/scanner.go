package stream

import (
	"errors"
	"fmt"
	"io"

	"sqlspl/internal/lexer"
)

// Config bounds a Scanner's buffering.
type Config struct {
	// MaxStatement fails the stream with ErrStatementTooLarge when a single
	// statement (including its leading whitespace/comments) spans more
	// bytes. <= 0 means unlimited — the scanner then buffers as much as the
	// largest statement demands.
	MaxStatement int
}

const (
	// readChunk is the read size the scanner starts with; reads grow with
	// the in-progress statement (so rescans of a statement spanning many
	// reads stay amortized-linear) up to maxReadChunk.
	readChunk    = 64 << 10
	maxReadChunk = 4 << 20

	// tentativeTail is how close to the window edge a token may end — or a
	// scan error may start — and still be treated as changeable by more
	// input: a trailing identifier can grow, '<' can become '<=', a string
	// can continue via a doubled quote, and a token followed by a truncated
	// UTF-8 rune can merge with it once the rune completes. The longest
	// such pending lexeme fragment is 4 bytes; 8 is slack. Anything ending
	// earlier was delimited by real bytes and cannot change.
	tentativeTail = 8

	// scanIncrement is how many tokens one scan of the window may add.
	// Scanning in increments, and dropping the tokens of yielded
	// statements before each, keeps the token buffer at the statement in
	// progress plus one increment instead of every token of a read.
	scanIncrement = 256
)

// ErrStatementTooLarge reports a statement exceeding Config.MaxStatement.
// Callers match it with errors.Is.
var ErrStatementTooLarge = errors.New("statement exceeds configured maximum size")

// Statement is one yielded statement span.
//
// Ownership: Text is an immutable substring of the scanner's window and
// may be retained (it pins its read chunk); Tokens and Err point into the
// scanner's reusable buffers and are valid ONLY until the next call to
// Next. Callers that keep them must copy.
type Statement struct {
	// Text is the raw span: leading whitespace/comments, the statement
	// itself, and its closing ';' when present. Concatenating the Text of
	// every yielded statement reproduces the input byte for byte.
	Text string
	// Off, Line, Col locate Text[0] in the overall input (byte offset,
	// 1-based line/column).
	Off       int
	Line, Col int
	// Tokens are the statement's tokens with positions relative to Text —
	// exactly what lexer.ScanInto(Text) would produce. Empty for a span
	// holding only trivia (trailing comments, blank tail).
	Tokens []lexer.Token
	// Err is the statement's lexical error, positions relative to Text,
	// when scanning the statement failed; Tokens then holds the tokens
	// confirmed before the error. The span extends to the next raw ';' (or
	// end of input) and is not parsed further.
	Err *lexer.Error
	// Resynced reports that Err's span was closed by finding a raw ';'
	// (recovery's "rescanning after the next ';'" case) rather than by end
	// of input.
	Resynced bool
}

// Scanner yields statements from an io.Reader without buffering the whole
// script: its window holds the input from the statement in progress to
// the end of the last read, which it scans with lexer.ScanPartialFrom a
// bounded number of tokens at a time, confirming tokens that cannot change
// with more input and cutting statements with a Splitter. Its token buffer
// holds the statement in progress and at most one increment of scanned
// tokens, and it reads no more at once than an in-memory reader reporting
// Len holds. Not safe for concurrent use.
type Scanner struct {
	lex *lexer.Lexer
	r   io.Reader
	cfg Config

	window string // unyielded suffix of the input (plus scan lookahead)
	eof    bool

	// Absolute position of window[0] in the overall input.
	base              int
	baseLine, baseCol int

	toks  []lexer.Token   // confirmed tokens, window-relative positions
	boot  [16]lexer.Token // toks' first backing array: a short script's tokens need no other
	walk  int             // toks[:walk] already fed to split
	split Splitter

	// Start of the in-progress statement, window-relative.
	stmtOff, stmtLine, stmtCol int
	stmtTok                    int // index in toks of its first token; scanMore drops the tokens before it

	// Where scanning resumes, window-relative.
	scanOff, scanLine, scanCol int

	// A definitive lexical error pending resynchronization: the current
	// statement ends at the next raw ';' at or after resyncFrom (or at
	// resyncHit when the offending byte is itself a ';').
	scanErr    *lexer.Error
	resyncFrom int
	resyncHit  int

	buf  []byte // reusable read chunk
	stmt Statement
	err  lexer.Error // backing store for stmt.Err
	done bool
}

// NewScanner returns a Scanner reading the script from r and tokenizing
// with lx (the statement dialect's lexer).
func NewScanner(lx *lexer.Lexer, r io.Reader, cfg Config) *Scanner {
	s := &Scanner{
		lex: lx, r: r, cfg: cfg,
		baseLine: 1, baseCol: 1,
		stmtLine: 1, stmtCol: 1,
		scanLine: 1, scanCol: 1,
		resyncHit: -1,
	}
	s.toks = s.boot[:0]
	return s
}

// Next returns the next statement, or io.EOF when the input is exhausted.
// Any other error (reader failure, ErrStatementTooLarge) is terminal.
func (s *Scanner) Next() (*Statement, error) {
	if s.done {
		return nil, io.EOF
	}
	for {
		// 1) Statement boundaries among already-confirmed tokens.
		for s.walk < len(s.toks) {
			i := s.walk
			s.walk++
			if s.split.Boundary(s.toks[i].Text) {
				t := s.toks[i]
				el, ec := t.EndPos()
				return s.yield(t.End, el, ec, nil, false), nil
			}
		}

		// 2) A definitive lexical error ends its statement at the next raw
		// ';' — or at end of input, which also ends the stream's tokens.
		if s.scanErr != nil {
			if i := s.rawBoundary(); i >= 0 {
				le := s.scanErr
				el, ec := advanceOver(s.window[le.Off:i+1], le.Line, le.Col)
				return s.yield(i+1, el, ec, le, true), nil
			}
			if s.eof {
				le := s.scanErr
				el, ec := advanceOver(s.window[le.Off:], le.Line, le.Col)
				return s.yield(len(s.window), el, ec, le, false), nil
			}
			s.resyncFrom = len(s.window)
			if err := s.refill(); err != nil {
				s.done = true
				return nil, err
			}
			continue
		}

		// 3) Extend the confirmed token stream.
		if s.scanMore() {
			continue
		}

		// 4) Nothing more in this window: finish or read on.
		if s.eof {
			if s.stmtOff < len(s.window) {
				el, ec := advanceOver(s.window[s.stmtOff:], s.stmtLine, s.stmtCol)
				return s.yield(len(s.window), el, ec, nil, false), nil
			}
			s.done = true
			return nil, io.EOF
		}
		if err := s.refill(); err != nil {
			s.done = true
			return nil, err
		}
	}
}

// scanMore drops the tokens of yielded statements and runs the lexer over
// at most scanIncrement more tokens of the unscanned window suffix,
// confirming those that cannot change with more input. It reports whether
// it made progress (new confirmed tokens or a definitive-error
// transition).
func (s *Scanner) scanMore() bool {
	if s.stmtTok > 0 {
		kept := copy(s.toks, s.toks[s.stmtTok:])
		s.toks = s.toks[:kept]
		s.walk -= s.stmtTok
		s.stmtTok = 0
	}
	n := len(s.toks)
	toks, err := s.lex.ScanPartialFrom(s.window, s.scanOff, s.scanLine, s.scanCol, scanIncrement, s.toks)
	s.toks = toks
	if err != nil {
		var le *lexer.Error
		if !errors.As(err, &le) {
			// Defensive: an unstructured scan error has no position to
			// resynchronize from; charge the rest of the window to it.
			le = &lexer.Error{
				Line: s.scanLine, Col: s.scanCol,
				Off: s.scanOff, Resume: len(s.window), Msg: err.Error(),
			}
		}
		if !s.eof && (le.Resume+1 >= len(s.window) || le.Off+tentativeTail >= len(s.window)) {
			// The error touches the window edge, so more input may cure it
			// (unterminated quote/comment, truncated rune or punctuation):
			// rescan from the error's start once more bytes arrive.
			s.scanOff, s.scanLine, s.scanCol = le.Off, le.Line, le.Col
			s.popTentative(n)
			return len(s.toks) > n
		}
		s.scanErr = le
		s.resyncHit = -1
		if le.Off < len(s.window) && s.window[le.Off] == ';' {
			// The offending character is itself a statement separator (a
			// dialect composed without the SEMICOLON token): the statement
			// ends right at it.
			s.resyncHit = le.Off
		}
		s.resyncFrom = le.Resume
		if s.resyncFrom <= le.Off {
			s.resyncFrom = le.Off + 1 // always make progress
		}
		return true
	}
	if len(s.toks) > n {
		t := s.toks[len(s.toks)-1]
		el, ec := t.EndPos()
		s.scanOff, s.scanLine, s.scanCol = t.End, el, ec
	}
	if !s.eof {
		s.popTentative(n)
	}
	return len(s.toks) > n
}

// popTentative unconfirms trailing tokens (appended by the current scan;
// n is the confirmed count before it) that end inside the window's
// tentative tail zone, rewinding the scan resume point to the earliest
// popped token so they are rescanned with more context after the next
// read. Tokens confirmed by earlier scans are never in the zone: they
// ended at least tentativeTail bytes before a window edge that has only
// receded since.
func (s *Scanner) popTentative(n int) {
	for last := len(s.toks) - 1; last >= n && s.toks[last].End+tentativeTail > len(s.window); last-- {
		t := s.toks[last]
		s.toks = s.toks[:last]
		if t.Off < s.scanOff {
			s.scanOff, s.scanLine, s.scanCol = t.Off, t.Line, t.Col
		}
	}
}

// rawBoundary locates the raw ';' that closes the statement owning the
// pending lexical error, or -1 if it is not in the window yet.
func (s *Scanner) rawBoundary() int {
	if s.resyncHit >= 0 {
		return s.resyncHit
	}
	return nextRawBoundary(s.window, s.resyncFrom)
}

// yield cuts the current statement at window offset end (whose
// window-relative end position is endLine/endCol) and rolls the statement
// origin forward. le, when non-nil, is the statement's lexical error.
func (s *Scanner) yield(end, endLine, endCol int, le *lexer.Error, resynced bool) *Statement {
	st := &s.stmt
	st.Text = s.window[s.stmtOff:end]
	st.Off = s.base + s.stmtOff
	st.Line = s.baseLine + s.stmtLine - 1
	if s.stmtLine == 1 {
		st.Col = s.baseCol + s.stmtCol - 1
	} else {
		st.Col = s.stmtCol
	}
	stToks := s.toks[s.stmtTok:s.walk]
	for i := range stToks {
		rebaseToken(&stToks[i], s.stmtOff, s.stmtLine, s.stmtCol)
	}
	st.Tokens = stToks
	st.Err = nil
	st.Resynced = resynced
	if le != nil {
		s.err = *le
		rebaseError(&s.err, s.stmtOff, s.stmtLine, s.stmtCol)
		st.Err = &s.err
		s.scanErr = nil
		s.resyncHit = -1
		// Scanning restarts cleanly just past the resynchronization point.
		s.scanOff, s.scanLine, s.scanCol = end, endLine, endCol
	}
	s.stmtOff, s.stmtLine, s.stmtCol = end, endLine, endCol
	s.stmtTok = s.walk
	s.split.Reset()
	return st
}

// refill drops the yielded window prefix, rebases retained state, and
// reads the next chunk. On success either the window grew or eof is set.
func (s *Scanner) refill() error {
	if s.stmtOff > 0 {
		cut, cutLine, cutCol := s.stmtOff, s.stmtLine, s.stmtCol
		retained := s.toks[s.stmtTok:]
		copy(s.toks, retained)
		s.toks = s.toks[:len(retained)]
		for i := range s.toks {
			rebaseToken(&s.toks[i], cut, cutLine, cutCol)
		}
		s.walk -= s.stmtTok
		s.stmtTok = 0
		if s.scanLine == cutLine {
			s.scanCol -= cutCol - 1
		}
		s.scanLine -= cutLine - 1
		s.scanOff -= cut
		if s.scanErr != nil {
			rebaseError(s.scanErr, cut, cutLine, cutCol)
		}
		if s.resyncFrom > cut {
			s.resyncFrom -= cut
		} else {
			s.resyncFrom = 0
		}
		if s.resyncHit >= 0 {
			s.resyncHit -= cut
		}
		s.base += cut
		if cutLine > 1 {
			s.baseCol = cutCol
		} else {
			s.baseCol += cutCol - 1
		}
		s.baseLine += cutLine - 1
		s.window = s.window[cut:]
		s.stmtOff, s.stmtLine, s.stmtCol = 0, 1, 1
	}
	if s.cfg.MaxStatement > 0 && len(s.window) > s.cfg.MaxStatement {
		return fmt.Errorf("stream: %w: statement at offset %d spans more than %d bytes",
			ErrStatementTooLarge, s.base, s.cfg.MaxStatement)
	}
	want := min(max(len(s.window), readChunk), maxReadChunk)
	if l, ok := s.r.(interface{ Len() int }); ok {
		// An in-memory reader (strings.Reader, bytes.Buffer) holds no more.
		want = min(want, max(l.Len(), 1))
	}
	if cap(s.buf) < want {
		s.buf = make([]byte, want)
	}
	for {
		n, err := s.r.Read(s.buf[:want])
		if n > 0 {
			s.window += string(s.buf[:n])
			if err == io.EOF {
				s.eof = true
			} else if err != nil && !errors.Is(err, io.EOF) {
				return err
			}
			return nil
		}
		switch {
		case err == nil:
			continue // a Read is allowed to return (0, nil); try again
		case errors.Is(err, io.EOF):
			s.eof = true
			return nil
		default:
			return err
		}
	}
}

// rebaseToken shifts a token's window-relative position to a new origin at
// (off, line, col): columns adjust only on the origin's own line.
func rebaseToken(t *lexer.Token, off, line, col int) {
	t.Off -= off
	t.End -= off
	if t.Line == line {
		t.Col -= col - 1
	}
	t.Line -= line - 1
}

// rebaseError is rebaseToken for a scan error.
func rebaseError(e *lexer.Error, off, line, col int) {
	e.Off -= off
	e.Resume -= off
	if e.Resume < 0 {
		e.Resume = 0
	}
	if e.Line == line {
		e.Col -= col - 1
	}
	e.Line -= line - 1
}

// advanceOver returns the position just past text when starting at
// (line, col), counting bytes the way the lexer does.
func advanceOver(text string, line, col int) (int, int) {
	for i := 0; i < len(text); i++ {
		if text[i] == '\n' {
			line++
			col = 1
		} else {
			col++
		}
	}
	return line, col
}
