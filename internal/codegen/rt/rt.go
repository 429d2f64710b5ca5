// Package rt is the parse runtime both engines run on: the scanner, the
// greedy and packrat passes over a product's compiled grammar program,
// the pooled run state and the Parse/Check/Accepts entry points, plus the
// token, tree and error types they produce. It is the analog of the ANTLR
// runtime library the paper's generated parsers link against.
//
// A parser is data: a Parser value holding its scanner tables, diagnostic
// names and grammar Program. The interpreted engine's constructor
// (parser.New) builds it, and a generated parser declares the value
// parser.New built as a literal and nothing else. Every engine therefore
// runs the same two recursive walkers, both here, and answers through the
// entry points here, which enforce Parser.MaxTokens.
//
// Membership is decided in two passes, as ANTLR 4 decides with SLL before
// full LL. The greedy pass (program.go) follows the first predicted path
// through the Program and proves most accepted statements in linear time
// with no memo. Only when it cannot does the packrat pass (packrat.go) —
// all ends, memoised, complete — run, once: a verdict pass tracks the
// expected terminals as it goes, so the same pass that rejects a statement
// also builds its syntax error. The packrat pass alone builds trees; the
// tree pass tracks nothing, and only a rejected Parse pays for the
// tracked pass. Statement recovery alone drives the exported passes
// (GetRun, ScanRun, CheckRun) itself, to check a script statement by
// statement. The runtime counts nothing: engine work is counted once, at
// the engine seam (internal/engine).
//
// The package uses only the standard library. The pregenerated preset
// parsers (internal/engine/generated) import it; `sqlfpc -emit` inlines
// these same source files into one standalone file per product. Packages
// lexer and parser alias the shared types (lexer.Token, lexer.Error,
// parser.Tree, parser.Span, parser.SyntaxError), so trees and errors cross
// from generated to interpreted code without conversion.
package rt

import (
	"fmt"
	"strings"
)

// Token is one scanned lexical element.
type Token struct {
	// Name is the terminal name from the token set (SELECT, IDENTIFIER, …).
	Name string
	// Text is the raw source text of the token.
	Text string
	// Line and Col are 1-based source coordinates of the token start.
	Line, Col int
	// Off and End are the token's byte-offset span in the scanned source:
	// src[Off:End] is exactly Text. Diagnostics use the span to anchor caret
	// excerpts and wire-format positions without re-deriving offsets from
	// line/column arithmetic.
	Off, End int
}

// EndPos returns the 1-based line/column of the first position after the
// token — where the input continues. Computed from the token's own text, so
// it needs no source or line index; multi-line tokens (string literals with
// embedded newlines) are handled.
func (t Token) EndPos() (line, col int) {
	line, col = t.Line, t.Col
	for i := 0; i < len(t.Text); i++ {
		if t.Text[i] == '\n' {
			line++
			col = 1
		} else {
			col++
		}
	}
	return line, col
}

// String formats the token for diagnostics.
func (t Token) String() string {
	if strings.EqualFold(t.Name, t.Text) {
		return t.Name
	}
	return fmt.Sprintf("%s(%q)", t.Name, t.Text)
}

// ScanError is a scan error with source position.
type ScanError struct {
	// Line and Col are the 1-based coordinates of the offending lexeme's
	// start (for unterminated quotes, the opening token, not end of input).
	Line, Col int
	// Off is the byte offset of that same position.
	Off int
	// Resume is the scanner's byte position when the error was raised — the
	// earliest offset at which a recovering caller could restart scanning.
	// For an unexpected character it equals Off; for unterminated quotes and
	// comments it is where the input ran out.
	Resume int
	Msg    string
}

// Error implements error.
func (e *ScanError) Error() string {
	return fmt.Sprintf("lex error at %d:%d: %s", e.Line, e.Col, e.Msg)
}

// Tree is a node of the concrete parse tree. Nodes carrying a production
// name (Label) wrap the material derived by that production; leaves carry
// the scanned token. This labelled tree is what semantic actions (package
// ast) consume — the analog of the paper's Jak-implemented actions over
// generated parser output.
type Tree struct {
	// Label is the production (nonterminal) name, empty for token leaves.
	Label string
	// Token is set on leaves only.
	Token *Token
	// Children are the sub-derivations, in input order.
	Children []*Tree
}

// IsLeaf reports whether the node is a token leaf.
func (t *Tree) IsLeaf() bool { return t.Token != nil }

// Find returns the first child (depth-first, pre-order, not including t
// itself) labelled with the given production name, or nil.
func (t *Tree) Find(label string) *Tree {
	for _, c := range t.Children {
		if c.Label == label {
			return c
		}
		if found := c.Find(label); found != nil {
			return found
		}
	}
	return nil
}

// FindAll returns all descendants with the given label in pre-order,
// without descending into matches (so nested same-labelled constructs,
// e.g. subqueries, are returned once at their outermost position).
func (t *Tree) FindAll(label string) []*Tree {
	var out []*Tree
	for _, c := range t.Children {
		if c.Label == label {
			out = append(out, c)
			continue
		}
		out = append(out, c.FindAll(label)...)
	}
	return out
}

// Leaves returns the tokens under t in input order.
func (t *Tree) Leaves() []Token {
	var out []Token
	var walk func(n *Tree)
	walk = func(n *Tree) {
		if n.Token != nil {
			out = append(out, *n.Token)
			return
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(t)
	return out
}

// Text reconstructs the source text of the subtree, tokens joined by
// single spaces.
func (t *Tree) Text() string {
	leaves := t.Leaves()
	parts := make([]string, len(leaves))
	for i, tok := range leaves {
		parts[i] = tok.Text
	}
	return strings.Join(parts, " ")
}

// Dump renders the tree with indentation for debugging and the sqlparse CLI.
func (t *Tree) Dump() string {
	var b strings.Builder
	var walk func(n *Tree, depth int)
	walk = func(n *Tree, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		if n.Token != nil {
			fmt.Fprintf(&b, "%s\n", n.Token)
			return
		}
		fmt.Fprintf(&b, "%s\n", n.Label)
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(t, 0)
	return b.String()
}

// Span locates a source region by byte offsets plus the 1-based line and
// column of its start. Start and End are offsets into the original source
// string (End exclusive); Start == End marks a point, which is how
// end-of-input diagnostics are addressed.
type Span struct {
	Start, End int
	Line, Col  int
}

// SyntaxError reports a parse failure at the farthest position reached.
type SyntaxError struct {
	// Line and Col locate the offending token — or, at end of input, the
	// position just past the last token.
	Line, Col int
	// Span is the byte-offset region of the offending token in the source
	// (a point at end of input).
	Span Span
	// Found is the unexpected token, or "end of input".
	Found string
	// Expected lists display names of the tokens that would have allowed
	// progress: keyword spellings upper-cased, punctuation quoted,
	// deduplicated across aliases, internal names dropped.
	Expected []string
}

// Error implements error.
func (e *SyntaxError) Error() string {
	exp := ""
	if len(e.Expected) > 0 {
		exp = fmt.Sprintf(", expected one of: %s", strings.Join(e.Expected, ", "))
	}
	return fmt.Sprintf("syntax error at %d:%d: unexpected %s%s", e.Line, e.Col, e.Found, exp)
}
