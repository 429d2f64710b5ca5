package parser

import (
	"fmt"
	"strings"

	"sqlspl/internal/codegen/rt"
	"sqlspl/internal/lexer"
)

// Span locates a source region by byte offsets plus the 1-based line and
// column of its start; Start == End marks a point, which is how
// end-of-input diagnostics are addressed. It is the runtime's type
// (package rt).
type Span = rt.Span

// Diagnostic is one recovered scan or parse failure in a script. A
// statement-recovery pass (Parser.ParseRecover) returns a slice of them,
// sorted by Span and non-overlapping at statement granularity.
//
// Either Msg is set (lexical errors, resource-cap refusals: a pre-rendered
// description) or Got/Expected are (syntax errors: the offending token and
// the canonicalized display names of the tokens that would have allowed
// progress). Hint, when present, explains how recovery proceeded.
type Diagnostic struct {
	Span     Span
	Got      string
	Expected []string
	Hint     string
	Msg      string
}

// TooManyErrors is the Hint carried by the sentinel diagnostic appended
// when recovery stops early at the MaxDiagnostics cap. The sentinel's Span
// points at the first suppressed failure.
const TooManyErrors = "too many errors"

// Message renders the diagnostic as a one-line "line:col: ..." string.
func (d *Diagnostic) Message() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d:%d: ", d.Span.Line, d.Span.Col)
	if d.Msg != "" {
		b.WriteString(d.Msg)
	} else {
		fmt.Fprintf(&b, "unexpected %s", d.Got)
		if len(d.Expected) > 0 {
			fmt.Fprintf(&b, ", expected one of: %s", strings.Join(d.Expected, ", "))
		}
	}
	if d.Hint != "" {
		fmt.Fprintf(&b, " (%s)", d.Hint)
	}
	return b.String()
}

// Render returns Message plus a caret-marked excerpt of the offending
// source line. src must be the text the diagnostic was produced from. To
// render many diagnostics against one source, RenderDiagnostics shares a
// single line index.
func (d *Diagnostic) Render(src string) string {
	return d.render(lexer.NewLineIndex(src))
}

// RenderDiagnostics renders each diagnostic with its caret excerpt,
// separated by blank lines, building the line index once.
func RenderDiagnostics(src string, diags []Diagnostic) string {
	ix := lexer.NewLineIndex(src)
	parts := make([]string, len(diags))
	for i := range diags {
		parts[i] = diags[i].render(ix)
	}
	return strings.Join(parts, "\n\n")
}

func (d *Diagnostic) render(ix *lexer.LineIndex) string {
	var b strings.Builder
	b.WriteString(d.Message())
	line := ix.LineText(d.Span.Line)
	col := d.Span.Col
	if col < 1 {
		col = 1
	}
	b.WriteString("\n  ")
	b.WriteString(line)
	b.WriteString("\n  ")
	// Pad with the line's own tabs so the caret stays aligned under the
	// offending column in a terminal.
	for i := 0; i < col-1; i++ {
		if i < len(line) && line[i] == '\t' {
			b.WriteByte('\t')
		} else {
			b.WriteByte(' ')
		}
	}
	b.WriteByte('^')
	// Extend the marker across the span, but never past this line.
	width := d.Span.End - d.Span.Start
	if rest := len(line) - (col - 1); width > rest {
		width = rest
	}
	for i := 1; i < width; i++ {
		b.WriteByte('~')
	}
	return b.String()
}
