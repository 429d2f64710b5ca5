// Package parser turns composed grammars into working parsers.
//
// The engine interprets a grammar.Grammar directly: recursive descent with
// ordered alternatives, full backtracking, memoisation per (production,
// position), and FIRST-set prediction to prune alternatives that cannot
// match the lookahead token. This combination plays the role ANTLR plays in
// the paper's prototype: it accepts the LL(k) grammars produced by feature
// composition — including compositions whose appended choices share
// prefixes, which pure LL(1) prediction cannot separate (ANTLR resolves
// those with syntactic predicates; we resolve them by backtracking).
//
// The engine runs on the runtime the generated parsers share
// (internal/codegen/rt): a Parser is an rt.Parser over the grammar
// compiled to a runtime program (rt.Program), and its Parse,
// Check and Accepts are the runtime's own entry points — scanning, the
// MaxTokens cap, the greedy pass that proves most accepted statements,
// the packrat pass that decides the rest, builds trees and reports syntax
// errors, and the memo are all the runtime's. A generated parser is the
// rt.Parser New builds, printed as a literal (package codegen).
// What this package adds is statement recovery (ParseRecover). The
// package counts nothing; engine work is counted at the engine seam
// (internal/engine).
//
// New validates the grammar, since the engine requires the absence of
// left recursion to terminate, and compiles the prediction sets from the
// analysis grammar.Validate returns: a build analyses its grammar once.
//
// # Concurrency
//
// A built Parser is immutable and safe for concurrent use: any number of
// goroutines may call Parse, Accepts, Check and ParseRecover on one shared
// Parser. All mutable state of a parse lives in a run (rt.Run) drawn from
// the runtime parser's pool; the Parser itself (grammar, compiled program,
// scanner tables, options) is only ever read after New returns — the
// serving-path contract the product catalog (package product) relies on
// when many goroutines share one cached product.
//
// # Memory
//
// The warm path allocates nothing per query: the runtime's pooled runs
// keep their greedy-pass failure bitset, flat memo, result arena, scratch
// stacks and token buffers between calls, and Accepts and Check never
// materialise trees. A tree returned by Parse owns the slab chunks and
// token buffer behind it, so it stays valid after the run is recycled.
// DESIGN.md §9 has the details.
package parser

import (
	"sqlspl/internal/codegen/rt"
	"sqlspl/internal/grammar"
	"sqlspl/internal/lexer"
)

// Tree is a node of the concrete parse tree: a production node (Label
// set) or a token leaf. It is the runtime's tree type (package rt), so
// generated and interpreted parsers return the same trees; semantic
// actions (package ast) consume it.
type Tree = rt.Tree

// Options tunes the engine. The zero value is the production configuration.
type Options struct {
	// DisablePrediction turns off FIRST-set pruning at choice points in
	// both passes (every First of the compiled program is nil), forcing
	// pure backtracking. Used by the ablation benchmarks
	// (EXPERIMENTS.md, ablation 1); roughly an order of magnitude slower on
	// wide grammars.
	DisablePrediction bool
	// MaxTokens caps input length as a defence against pathological inputs
	// in embedded deployments; 0 means no cap. It is the runtime parser's
	// MaxTokens, which ParseRecover enforces as well.
	MaxTokens int
	// MaxDiagnostics caps how many diagnostics ParseRecover reports before
	// appending the TooManyErrors sentinel and stopping; 0 means
	// DefaultMaxDiagnostics.
	MaxDiagnostics int
}

// Parser parses SQL text for one composed product grammar. It is the
// runtime parser (rt.Parser) the grammar compiles to, so Parse, Check and
// Accepts are the runtime's entry points:
//
//   - Parse scans and parses the whole input into a tree that owns its
//     nodes and tokens; empty (whitespace/comment-only) input parses to a
//     childless tree labelled with the start symbol.
//   - Check reports membership without building a tree (the accept path
//     is allocation-free); a statement the greedy pass cannot prove gets
//     one expected-token-tracking packrat pass, which returns the verdict
//     and the *SyntaxError together, and empty input checks clean.
//   - Accepts is the strict boolean membership test: no tree, no error
//     pass, and empty input is a grammar question.
//
// A Parser is safe for concurrent use: all fields are read-only after New,
// and each call draws its mutable run state from the runtime's pool.
type Parser struct {
	*rt.Parser
	g    *grammar.Grammar
	ts   *grammar.TokenSet
	lex  *lexer.Lexer
	opts Options
}

// New validates the grammar against the token set, builds the configured
// scanner, and compiles the grammar with its prediction sets. It fails if
// the grammar has undefined nonterminals, left recursion, or tokens missing
// from the set, or if the token set does not make a scanner.
func New(g *grammar.Grammar, ts *grammar.TokenSet, opts Options) (*Parser, error) {
	an, err := grammar.Validate(g, ts)
	if err != nil {
		return nil, err
	}
	rp, err := lexer.Tables(ts, an.Tokens())
	if err != nil {
		return nil, err
	}
	rp.Program, rp.MaxTokens = compile(g, an, !opts.DisablePrediction), opts.MaxTokens
	return &Parser{Parser: rp, g: g, ts: ts, lex: lexer.Over(rp), opts: opts}, nil
}

// Grammar returns the product grammar the parser was built from.
func (p *Parser) Grammar() *grammar.Grammar { return p.g }

// Tokens returns the token set the parser's scanner was built from.
func (p *Parser) Tokens() *grammar.TokenSet { return p.ts }

// Lexer returns the configured scanner (shared, concurrency-safe).
func (p *Parser) Lexer() *lexer.Lexer { return p.lex }

// SyntaxError reports a parse failure at the farthest position reached:
// the offending token (or the point past the last token at end of input)
// and the display names of the tokens that would have allowed progress.
// It is the runtime's type (package rt), shared with generated parsers.
type SyntaxError = rt.SyntaxError
