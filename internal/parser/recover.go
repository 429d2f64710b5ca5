package parser

import (
	"errors"
	"fmt"
	"strings"

	"sqlspl/internal/codegen/rt"
	"sqlspl/internal/lexer"
	"sqlspl/internal/stream"
)

// DefaultMaxDiagnostics caps how many diagnostics ParseRecover collects
// when Options.MaxDiagnostics is zero. When the cap is hit, one sentinel
// diagnostic with Hint == TooManyErrors is appended and recovery stops.
const DefaultMaxDiagnostics = 20

// ParseRecover checks src against the grammar and, instead of stopping at
// the farthest failure like Check, reports every failing statement. It
// returns nil when src is in the language — including the empty
// (whitespace/comment-only) script — and otherwise a non-empty slice of
// diagnostics sorted by Span and non-overlapping at statement granularity.
//
// Statements are the stream scanner's (internal/stream), the one
// segmentation of the system: a statement ends at every top-level ';'
// (';' inside parentheses does not split, and ';' inside a string literal
// is part of the literal's token, so neither triggers), and a lexical
// error ends its statement at the next ';' in the raw source. Each failing
// statement contributes one diagnostic: its scan error, or its syntax
// error at its own farthest failure. Valid input rides the same
// zero-allocation verdict path as Check: statements are cut only after
// the whole-script check has rejected, and a script that is one statement
// reuses that check's error.
func (p *Parser) ParseRecover(src string) []Diagnostic {
	r := p.GetRun()
	defer p.PutRun(r)
	if _, err := p.ScanRun(r, src, 0, 1, 1); err == nil {
		toks := r.Tokens()
		if len(toks) == 0 {
			return nil
		}
		if err := p.CheckLen(len(toks)); err != nil {
			return []Diagnostic{{Span: Span{Line: 1, Col: 1}, Msg: err.Error()}}
		}
		whole := p.CheckRun(r, 0, len(toks))
		if whole == nil {
			return nil
		}
		if oneStatement(toks) {
			return []Diagnostic{syntaxDiagnostic(whole)}
		}
	}
	return p.recoverStatements(r, src)
}

// oneStatement reports whether toks, the whole script's tokens, are one
// statement: no top-level ';' before the last token.
func oneStatement(toks []lexer.Token) bool {
	var split stream.Splitter
	for _, t := range toks[:len(toks)-1] {
		if split.Boundary(t.Text) {
			return false
		}
	}
	return true
}

// recoverStatements is the slow path: it cuts src into statements with the
// stream scanner and answers each one on r, rescanned at its own offset so
// that its tokens and scan error are already in script coordinates.
func (p *Parser) recoverStatements(r *rt.Run, src string) []Diagnostic {
	maxDiags := p.opts.MaxDiagnostics
	if maxDiags <= 0 {
		maxDiags = DefaultMaxDiagnostics
	}
	var out []Diagnostic
	skipped := -1 // index in out of a syntax error no later statement has followed yet
	sc := stream.NewScanner(p.Lexer(), strings.NewReader(src), stream.Config{})
	for {
		// An in-memory script fails no read, and Config{} sets no size
		// limit, so the scanner ends only with io.EOF.
		st, err := sc.Next()
		if err != nil {
			return out
		}
		if len(st.Tokens) == 0 && st.Err == nil {
			continue // trailing trivia: not a statement
		}
		if skipped >= 0 {
			out[skipped].Hint = "statement skipped"
			skipped = -1
		}
		d, failed := p.answer(r, src, st)
		if !failed {
			continue
		}
		if len(out) == maxDiags {
			return append(out, Diagnostic{
				Span: d.Span,
				Hint: TooManyErrors,
				Msg:  fmt.Sprintf("further errors suppressed after %d", maxDiags),
			})
		}
		if d.Msg == "" {
			skipped = len(out)
		}
		out = append(out, d)
	}
}

// answer rescans statement st of src onto r and reports whether it fails,
// with its diagnostic: the scan error, the MaxTokens refusal, or the
// syntax error of its tokens.
func (p *Parser) answer(r *rt.Run, src string, st *stream.Statement) (Diagnostic, bool) {
	lo := len(r.Tokens())
	if st.Off == 0 {
		lo = 0 // ScanRun starts the run's tokens afresh at offset 0
	}
	n, err := p.ScanRun(r, src[:st.Off+len(st.Text)], st.Off, st.Line, st.Col)
	if err != nil {
		var le *lexer.Error
		if !errors.As(err, &le) {
			// Defensive: an unstructured scan error charges the whole statement.
			return Diagnostic{Span: Span{Start: st.Off, End: st.Off + len(st.Text), Line: st.Line, Col: st.Col}, Msg: err.Error()}, true
		}
		end := le.Resume
		if end <= le.Off {
			end = min(le.Off+1, len(src)) // an unexpected character spans itself
		}
		d := Diagnostic{Span: Span{Start: le.Off, End: end, Line: le.Line, Col: le.Col}, Msg: le.Msg}
		if st.Resynced {
			d.Hint = "rescanning after the next ';'"
		}
		return d, true
	}
	toks := r.Tokens()[lo : lo+n]
	if p.MaxTokens > 0 && n > p.MaxTokens {
		t := toks[0]
		return Diagnostic{
			Span: Span{Start: t.Off, End: toks[n-1].End, Line: t.Line, Col: t.Col},
			Msg:  fmt.Sprintf("statement of %d tokens exceeds configured maximum %d", n, p.MaxTokens),
		}, true
	}
	if se := p.CheckRun(r, lo, lo+n); se != nil {
		return syntaxDiagnostic(se), true
	}
	return Diagnostic{}, false
}

// syntaxDiagnostic converts a per-statement SyntaxError into a Diagnostic.
func syntaxDiagnostic(e *SyntaxError) Diagnostic {
	return Diagnostic{Span: e.Span, Got: e.Found, Expected: e.Expected}
}
