package parser

import (
	"errors"
	"fmt"
	"strings"

	"sqlspl/internal/codegen/rt"
	"sqlspl/internal/lexer"
	"sqlspl/internal/stream"
)

// parseRecoverRef is the earlier two-pass statement recovery, kept as the
// reference ParseRecover must match diagnostic for diagnostic: it rescans
// the script resynchronizing at the next raw ';' after each lexical error,
// then walks the whole token stream through the statement splitter and
// checks each segment a scan diagnostic does not already explain.
func parseRecoverRef(p *Parser, src string) []Diagnostic {
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
	return refRecoverDiagnostics(p, r, src, whole)
}

// refMark is a hard segment boundary recorded during the rescan pass: the
// tokens before index idx belong to a segment already explained by diag (a
// lexical error), so that segment is not parsed again.
type refMark struct {
	idx  int
	diag Diagnostic
}

// refNextRawBoundary returns the offset of the first ';' in src at or
// after from, or -1.
func refNextRawBoundary(src string, from int) int {
	from = max(from, 0)
	if from >= len(src) {
		return -1
	}
	if i := strings.IndexByte(src[from:], ';'); i >= 0 {
		return from + i
	}
	return -1
}

func refRecoverDiagnostics(p *Parser, r *rt.Run, src string, whole *SyntaxError) []Diagnostic {
	maxDiags := p.opts.MaxDiagnostics
	if maxDiags <= 0 {
		maxDiags = DefaultMaxDiagnostics
	}

	// Pass 1: scan the whole script; a lexical error closes the current
	// segment with a scan diagnostic and scanning resumes after the next
	// ';' in the raw source.
	var marks []refMark
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
				marks = append(marks, refMark{idx: scanned, diag: Diagnostic{
					Span: Span{Start: off, End: len(src), Line: line, Col: col},
					Msg:  err.Error(),
				}})
				break
			}
			end := le.Resume
			if end <= le.Off {
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
				resume = le.Off + 1
			}
			next := refNextRawBoundary(src, resume)
			if le.Off < len(src) && src[le.Off] == ';' {
				next = le.Off
			}
			if next < 0 {
				marks = append(marks, refMark{idx: scanned, diag: d})
				break
			}
			d.Hint = "rescanning after the next ';'"
			marks = append(marks, refMark{idx: scanned, diag: d})
			off = next + 1
			if ix == nil {
				ix = lexer.NewLineIndex(src)
			}
			line, col = ix.Pos(off)
		}
	}
	toks := r.Tokens()

	// Pass 2: walk the tokens once through the statement splitter, closing
	// a segment at every top-level ';' and at every hard mark, and parse
	// each segment a scan diagnostic does not already explain.
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
