package parser

// stream_equiv_test.go pins the contract the /v1/stream endpoint is built
// on: checking a script statement-by-statement through the streaming
// scanner (internal/stream) and relocating each statement's recovery view
// into script coordinates reproduces ParseRecover over the whole script —
// for every chunk size, including chunks that split tokens, and for every
// failure mode (parse errors, lexical errors, resynchronization). The two
// documented exceptions: the stream does not apply the MaxDiagnostics cap,
// and statements past a whole-script max-tokens rejection are still
// checked individually.

import (
	"io"
	"reflect"
	"strings"
	"testing"

	"sqlspl/internal/grammar"
	"sqlspl/internal/stream"
)

// buildScriptParserTB is scriptParser for both tests and fuzz targets.
func buildScriptParserTB(tb testing.TB, opts Options) *Parser {
	tb.Helper()
	g, err := grammar.ParseGrammar(scriptGrammar)
	if err != nil {
		tb.Fatalf("ParseGrammar: %v", err)
	}
	ts, err := grammar.ParseTokens(scriptTokens)
	if err != nil {
		tb.Fatalf("ParseTokens: %v", err)
	}
	p, err := New(g, ts, opts)
	if err != nil {
		tb.Fatalf("New: %v", err)
	}
	return p
}

// smallReads returns at most n bytes from each Read, so the scanner's
// reads split tokens at every chunk size under test.
type smallReads struct {
	r io.Reader
	n int
}

func (s smallReads) Read(p []byte) (int, error) { return s.r.Read(p[:min(len(p), s.n)]) }

// streamedDiagnostics checks src statement-by-statement through the
// scanner at the given chunk size and returns every statement's recovery
// diagnostics relocated into whole-script coordinates — the serving
// layer's algorithm, restated over the parser directly.
func streamedDiagnostics(tb testing.TB, p *Parser, src string, chunk int) []Diagnostic {
	tb.Helper()
	sc := stream.NewScanner(p.Lexer(), smallReads{strings.NewReader(src), chunk}, stream.Config{})
	type pending struct {
		text      string
		off, line int
		col       int
	}
	var (
		out  []Diagnostic
		held *pending
	)
	emit := func(pd pending, hasMore bool) {
		for _, d := range p.ParseRecover(pd.text) {
			d.Span.Start += pd.off
			d.Span.End += pd.off
			if d.Span.Line == 1 {
				d.Span.Col += pd.col - 1
			}
			d.Span.Line += pd.line - 1
			d.Msg = stream.RelocateEndOfInput(d.Msg, pd.line, pd.col)
			if hasMore && d.Hint == "" {
				d.Hint = "statement skipped"
			}
			out = append(out, d)
		}
	}
	for {
		st, err := sc.Next()
		if err != nil {
			break
		}
		if len(st.Tokens) == 0 && st.Err == nil {
			continue // trivia-only tail: not a statement
		}
		if held != nil {
			emit(*held, true)
		}
		held = &pending{text: st.Text, off: st.Off, line: st.Line, col: st.Col}
	}
	if held != nil {
		emit(*held, false)
	}
	return out
}

func TestStreamedDiagnosticsMatchParseRecover(t *testing.T) {
	p := buildScriptParserTB(t, Options{})
	scripts := []string{
		"",
		"  -- only trivia\n",
		"SELECT a FROM t",
		"SELECT a FROM t;",
		"SELECT a FROM t; SELECT b FROM u;\n",
		"SELECT FROM t",                  // single failing statement
		"SELECT FROM t; SELECT b FROM u", // failure then success
		"SELECT a FROM t; SELECT FROM u", // success then final failure
		"SELECT FROM t; SELECT FROM u; SELECT FROM v",      // every statement fails
		"SELECT ( a FROM t; SELECT b FROM u",               // paren swallows the ';'
		"SELECT 'a; b' FROM t; SELECT c FROM u",            // ';' inside a string
		"SELECT @ FROM t; SELECT b FROM u",                 // lexical error, resync
		"SELECT a FROM t; SELECT 'unterminated",            // lexical error at EOF
		"SELECT @ t; SELECT @ u; SELECT c FROM w",          // repeated lexical errors
		"-- lead\nSELECT a FROM t;\n/* mid */ SELECT FROM", // trivia attribution
		"SELECT a FROM t WHERE b = (c); SELECT FROM (x",
	}
	for _, src := range scripts {
		want := p.ParseRecover(src)
		for _, chunk := range []int{1, 3, 7, 64 << 10} {
			got := streamedDiagnostics(t, p, src, chunk)
			if len(got) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("script %q chunk %d:\n got %+v\nwant %+v", src, chunk, got, want)
			}
		}
	}
}

// FuzzStreamSegment holds the streaming pipeline to its two invariants on
// arbitrary scripts and chunkings: statement spans concatenate back to the
// input, and the relocated per-statement diagnostics equal the whole-script
// recovery view (skipped only when the whole-script view hit its cap —
// streaming deliberately has none).
func FuzzStreamSegment(f *testing.F) {
	p := buildScriptParserTB(f, Options{})
	seeds := []struct {
		src   string
		chunk uint8
	}{
		{"SELECT a FROM t; SELECT b FROM u", 1},
		{"SELECT FROM t; SELECT ( a ; b ) FROM u;", 3},
		{"SELECT 'a; b' FROM t; SELECT @ u; SELECT c FROM w", 7},
		{"SELECT 'unterminated", 2},
		{"-- trivia\n;;;SELECT a FROM t", 5},
	}
	for _, s := range seeds {
		f.Add(s.src, s.chunk)
	}
	f.Fuzz(func(t *testing.T, src string, chunkSeed uint8) {
		if len(src) > 2048 {
			t.Skip("oversized input")
		}
		chunk := int(chunkSeed)%64 + 1

		sc := stream.NewScanner(p.Lexer(), smallReads{strings.NewReader(src), chunk}, stream.Config{})
		var concat strings.Builder
		clean := true
		for {
			st, err := sc.Next()
			if err != nil {
				break
			}
			concat.WriteString(st.Text)
			if st.Err != nil {
				clean = false
			} else if len(st.Tokens) > 0 && p.Check(st.Text) != nil {
				clean = false
			}
		}
		if concat.String() != src {
			t.Fatalf("chunk %d: statement spans do not concatenate to the input:\n got %q\nwant %q",
				chunk, concat.String(), src)
		}

		whole := p.ParseRecover(src)
		if clean != (len(whole) == 0) {
			t.Fatalf("chunk %d: streamed verdict clean=%t but whole-script recovery returned %d diagnostics for %q",
				chunk, clean, len(whole), src)
		}
		for _, d := range whole {
			if d.Hint == TooManyErrors {
				return // capped: whole-script view is truncated, streaming's is not
			}
		}
		got := streamedDiagnostics(t, p, src, chunk)
		if len(got) == 0 && len(whole) == 0 {
			return
		}
		if !reflect.DeepEqual(got, whole) {
			t.Fatalf("chunk %d: streamed diagnostics diverge for %q:\n got %+v\nwant %+v",
				chunk, src, got, whole)
		}
	})
}
