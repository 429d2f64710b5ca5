package parser

import (
	"errors"
	"fmt"

	"sqlspl/internal/codegen/rt"
	"sqlspl/internal/lexer"
	"sqlspl/internal/stream"
)

// DefaultMaxDiagnostics caps how many diagnostics ParseRecover collects
// when Options.MaxDiagnostics is zero. When the cap is hit, one sentinel
// diagnostic with Hint == TooManyErrors is appended and recovery stops.
const DefaultMaxDiagnostics = 20

// ParseRecover checks src against the grammar and, instead of stopping at
// the farthest failure like Check, resynchronizes at statement boundaries
// and reports every failing statement. It returns nil when src is in the
// language — including the empty (whitespace/comment-only) script — and
// otherwise a non-empty slice of diagnostics sorted by Span and
// non-overlapping at statement granularity.
//
// Recovery works on statement segments: the token stream is split at every
// top-level ';' (';' inside parentheses does not split, and ';' inside a
// string literal is part of the literal's token, so neither triggers), and
// each failing segment contributes one diagnostic at its own farthest
// failure. A lexical error ends its segment with a scan diagnostic and
// rescanning resumes after the next ';' in the raw source. Valid input
// rides the same zero-allocation verdict path as Check: the slow
// segmentation pass runs only after the whole-script check has rejected,
// and a script that is one segment reuses that check's error.
func (p *Parser) ParseRecover(src string) []Diagnostic {
	r := p.GetRun()
	defer p.PutRun(r)
	_, lexErr := p.ScanRun(r, src, 0, 1, 1)
	var whole *SyntaxError
	if lexErr == nil {
		n := len(r.Tokens())
		if n == 0 {
			return nil
		}
		if err := p.CheckLen(n); err != nil {
			return []Diagnostic{{Span: Span{Line: 1, Col: 1}, Msg: err.Error()}}
		}
		if whole = p.CheckRun(r, 0, n); whole == nil {
			return nil
		}
	}
	return p.recoverDiagnostics(r, src, whole)
}

// mark is a hard segment boundary recorded during the rescan pass: the
// tokens before index idx belong to a segment already explained by diag (a
// lexical error), so that segment is not parsed again.
type mark struct {
	idx  int
	diag Diagnostic
}

// recoverDiagnostics is the slow path: rescan src resynchronizing after
// lexical errors, then split the token stream into statement segments and
// check each one. A non-nil whole is the syntax error of the whole
// source, which already scanned without error into r, so the rescan pass
// is skipped and a segment spanning the whole scan takes that error.
func (p *Parser) recoverDiagnostics(r *rt.Run, src string, whole *SyntaxError) []Diagnostic {
	maxDiags := p.opts.MaxDiagnostics
	if maxDiags <= 0 {
		maxDiags = DefaultMaxDiagnostics
	}

	// Pass 1: scan the whole script. A lexical error closes the current
	// segment with a scan diagnostic; scanning resumes after the next ';'
	// in the raw source (Error.Resume is where the scanner stopped — for an
	// unterminated literal that is end of input, which cleanly ends
	// recovery too).
	var marks []mark
	if whole == nil {
		var ix *lexer.LineIndex
		off, line, col := 0, 1, 1
		for off <= len(src) && len(marks) <= maxDiags {
			_, err := p.ScanRun(r, src, off, line, col)
			if err == nil {
				break
			}
			scanned := len(r.Tokens())
			var le *lexer.Error
			if !errors.As(err, &le) {
				// Defensive: an unstructured scan error cannot be resynchronized.
				marks = append(marks, mark{idx: scanned, diag: Diagnostic{
					Span: Span{Start: off, End: len(src), Line: line, Col: col},
					Msg:  err.Error(),
				}})
				break
			}
			end := le.Resume
			if end <= le.Off {
				// A single-character error (unexpected character): span just it.
				end = le.Off + 1
				if end > len(src) {
					end = len(src)
				}
			}
			d := Diagnostic{
				Span: Span{Start: le.Off, End: end, Line: le.Line, Col: le.Col},
				Msg:  le.Msg,
			}
			resume := le.Resume
			if resume <= le.Off {
				resume = le.Off + 1 // always make progress
			}
			next := stream.NextRawBoundary(src, resume)
			if le.Off < len(src) && src[le.Off] == ';' {
				// The offending character is itself a statement separator —
				// the case of a dialect composed without the SEMICOLON token.
				// Resume right after it so each statement still gets its own
				// diagnostic.
				next = le.Off
			}
			if next < 0 {
				marks = append(marks, mark{idx: scanned, diag: d})
				break
			}
			d.Hint = "rescanning after the next ';'"
			marks = append(marks, mark{idx: scanned, diag: d})
			off = next + 1
			if ix == nil {
				ix = lexer.NewLineIndex(src)
			}
			line, col = ix.Pos(off)
		}
	}
	toks := r.Tokens()

	// Pass 2: walk the tokens once through the shared statement splitter
	// (internal/stream — the same boundary rules the streaming scanner
	// applies), closing a segment at every top-level ';' and at every hard
	// mark, and parse each segment that a scan diagnostic does not already
	// explain.
	var out []Diagnostic
	capped := false
	emit := func(d Diagnostic) {
		if capped {
			return
		}
		if len(out) >= maxDiags {
			out = append(out, Diagnostic{
				Span: d.Span,
				Hint: TooManyErrors,
				Msg:  fmt.Sprintf("further errors suppressed after %d", maxDiags),
			})
			capped = true
			return
		}
		out = append(out, d)
	}
	mi := 0
	lo := 0
	var split stream.Splitter
	segment := func(hi int, hasMore bool) {
		if capped || hi <= lo {
			return
		}
		st := toks[lo:hi]
		if p.MaxTokens > 0 && len(st) > p.MaxTokens {
			t := st[0]
			emit(Diagnostic{
				Span: Span{Start: t.Off, End: st[len(st)-1].End, Line: t.Line, Col: t.Col},
				Msg:  fmt.Sprintf("statement of %d tokens exceeds configured maximum %d", len(st), p.MaxTokens),
			})
			return
		}
		serr := whole
		if whole == nil || lo != 0 || hi != len(toks) {
			if serr = p.CheckRun(r, lo, hi); serr == nil {
				return
			}
		}
		d := syntaxDiagnostic(serr)
		if hasMore {
			d.Hint = "statement skipped"
		}
		emit(d)
	}
	for i := 0; i <= len(toks); i++ {
		for mi < len(marks) && marks[mi].idx == i {
			// Tokens since the last boundary belong to the statement the
			// scan diagnostic already explains; they are not parsed again.
			emit(marks[mi].diag)
			lo = i
			split.Reset()
			mi++
		}
		if i == len(toks) {
			break
		}
		if split.Boundary(toks[i].Text) {
			segment(i+1, i+1 < len(toks) || mi < len(marks))
			lo = i + 1
		}
	}
	segment(len(toks), false)
	return out
}

// syntaxDiagnostic converts a per-segment SyntaxError into a Diagnostic.
func syntaxDiagnostic(e *SyntaxError) Diagnostic {
	return Diagnostic{Span: e.Span, Got: e.Found, Expected: e.Expected}
}
