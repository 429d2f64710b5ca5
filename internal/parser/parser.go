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
// (internal/codegen/rt): a Parser is an rt.Parser whose start function
// walks the compiled grammar program (rt.Program, built by Program, the
// one builder codegen prints into every generated parser too), and its
// Parse, Check and Accepts are the runtime's own entry points — scanning,
// the MaxTokens cap, the greedy pass that proves most accepted statements
// before any packrat work, the packrat memo, tree building and the error
// pass are all the runtime's. What differs from a generated parser is
// only how the packrat pass expresses productions (program nodes walked
// at parse time instead of emitted Go functions) and statement recovery
// (ParseRecover), which this package adds. The package counts nothing;
// engine work is counted at the engine seam (internal/engine).
//
// Composed grammars must be validated (grammar.Validate) before parsing:
// the engine requires the absence of left recursion to terminate.
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
//     is allocation-free); a reject pays for the expected-token-tracking
//     pass that builds the *SyntaxError, and empty input checks clean.
//   - Accepts is the strict boolean membership test: no tree, no error
//     pass, and empty input is a grammar question.
//
// A Parser is safe for concurrent use: all fields are read-only after New,
// and each call draws its mutable run state from the runtime's pool.
type Parser struct {
	*rt.Parser
	g    *grammar.Grammar
	lex  *lexer.Lexer
	opts Options
}

// New validates the grammar against the token set, builds the configured
// scanner, and compiles the grammar with its prediction sets. It fails if
// the grammar has undefined nonterminals, left recursion, or tokens missing
// from the set, or if the token set does not make a scanner.
func New(g *grammar.Grammar, ts *grammar.TokenSet, opts Options) (*Parser, error) {
	if err := grammar.Validate(g, ts); err != nil {
		return nil, err
	}
	refs := g.ReferencedTokens()
	rp, err := lexer.Tables(ts, refs)
	if err != nil {
		return nil, err
	}
	prog := compile(g, refs, !opts.DisablePrediction)
	rp.Prods, rp.Start, rp.Root, rp.Program, rp.MaxTokens = g.Len(), g.Start, prog.root, prog.Program, opts.MaxTokens
	return &Parser{Parser: rp, g: g, lex: lexer.Over(rp), opts: opts}, nil
}

// Grammar returns the product grammar the parser was built from.
func (p *Parser) Grammar() *grammar.Grammar { return p.g }

// Lexer returns the configured scanner (shared, concurrency-safe).
func (p *Parser) Lexer() *lexer.Lexer { return p.lex }

// SyntaxError reports a parse failure at the farthest position reached:
// the offending token (or the point past the last token at end of input)
// and the display names of the tokens that would have allowed progress.
// It is the runtime's type (package rt), shared with generated parsers.
type SyntaxError = rt.SyntaxError

// root parses the start production at pos: the runtime parser's Root.
func (pr *program) root(r *rt.Run, pos int) []rt.Result {
	return pr.parseNT(r, int(pr.Start), pos)
}

// parseNT parses the production with the given index at pos, memoised in
// the run's flat table.
func (pr *program) parseNT(r *rt.Run, prod int, pos int) []rt.Result {
	slot, memo, hit := r.Memo(prod, pos)
	if hit {
		return memo
	}
	name := pr.names[prod]
	out := r.GetScratch()
	tmp := r.GetScratch()
	la := r.ID(pos)
	for _, alt := range pr.Prods[prod] {
		if g := pr.Nodes[alt].First; g != nil && !g.Has(la) {
			// Record what this alternative wanted, for error messages.
			r.PredictMiss(pos, pr.first[alt])
			continue
		}
		tmp = pr.parseExpr(r, alt, pos, tmp[:0])
		for _, res := range tmp {
			if rt.HasEnd(out, res.End) {
				continue
			}
			out = append(out, rt.Result{End: res.End, Forest: r.NodeForest(name, res.Forest)})
		}
	}
	// Longest-first makes downstream dedup prefer maximal derivations and
	// lets callers that need the full input find it early.
	rt.SortByEndDesc(out)
	r.PutScratch(tmp)
	return r.Memoize(slot, out)
}

// parseExpr parses node n at pos, appending every distinct end position
// (each with one representative forest) to dst.
func (pr *program) parseExpr(r *rt.Run, n int32, pos int, dst []rt.Result) []rt.Result {
	nd := &pr.Nodes[n]
	switch nd.Op {
	case rt.OpTok:
		if r.ID(pos) == nd.Arg {
			return append(dst, rt.Result{End: pos + 1, Forest: r.LeafForest(pos)})
		}
		r.Fail(pos, pr.toks[nd.Arg])
		return dst

	case rt.OpNT:
		return append(dst, pr.parseNT(r, int(nd.Arg), pos)...)

	case rt.OpSeq:
		cur := r.GetScratch()
		next := r.GetScratch()
		tmp := r.GetScratch()
		cur = append(cur, rt.Result{End: pos})
		for _, item := range nd.Kids {
			next = next[:0]
			for _, c := range cur {
				tmp = pr.parseExpr(r, item, c.End, tmp[:0])
				for _, res := range tmp {
					if rt.HasEnd(next, res.End) {
						continue
					}
					next = append(next, rt.Result{End: res.End, Forest: r.Merge(c.Forest, res.Forest)})
				}
			}
			if len(next) == 0 {
				cur = cur[:0]
				break
			}
			cur, next = next, cur
		}
		dst = append(dst, cur...)
		r.PutScratch(tmp)
		r.PutScratch(next)
		r.PutScratch(cur)
		return dst

	case rt.OpChoice:
		start := len(dst)
		la := r.ID(pos)
		for _, alt := range nd.Kids {
			if g := pr.Nodes[alt].First; g != nil && !g.Has(la) {
				r.PredictMiss(pos, pr.first[alt])
				continue
			}
			altStart := len(dst)
			dst = pr.parseExpr(r, alt, pos, dst)
			// Keep only ends not already produced by an earlier alternative.
			keep := altStart
			for i := altStart; i < len(dst); i++ {
				if rt.HasEnd(dst[start:keep], dst[i].End) {
					continue
				}
				dst[keep] = dst[i]
				keep++
			}
			dst = dst[:keep]
		}
		return dst

	case rt.OpOpt:
		start := len(dst)
		dst = pr.parseExpr(r, nd.Kids[0], pos, dst)
		if rt.HasEnd(dst[start:], pos) {
			return dst // body already produced the empty match
		}
		return append(dst, rt.Result{End: pos})

	case rt.OpStar:
		return r.Repeat(pos, true, dst, pr.bodies[n])

	case rt.OpPlus:
		return r.Repeat(pos, false, dst, pr.bodies[n])
	}
	return dst
}
