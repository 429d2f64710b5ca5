// Package configure is the feature-model configuration solver: the serving
// layer that turns the paper's requires/excludes feature model from a
// validator into a negotiator. Where package feature answers "is this
// selection a product?", this package answers the four questions a client
// actually asks:
//
//	complete — extend my partial selection to a minimal valid config;
//	explain  — my selection is infeasible: which of my decisions conflict,
//	           which model constraints do they violate, what should I drop?
//	count    — how large is the valid product space, per diagram?
//	sample   — give me uniformly-ish random valid configs from that space.
//
// Everything is deterministic: completion and explanation are pure
// functions of the request, counting is exact arithmetic over the feature
// tree (big.Int — the SQL:2003 space overflows uint64 by hundreds of
// digits), and sampling is a pure function of (seed, request). The solver
// itself — unit propagation plus bounded backtracking — lives in package
// feature (Model.Solve) so that model-level analyses (DeadFeatures) share
// it; this package layers policy on top: minimality bookkeeping, conflict
// minimization, counting, and sampling.
package configure

import (
	"errors"
	"fmt"
	"math/big"
	"sort"
	"strings"
	"sync"

	"sqlspl/internal/cache"
	"sqlspl/internal/feature"
)

// completionCacheCapacity bounds the per-solver completion memo. Distinct
// (require, forbid) shapes in real traffic are the preset names plus a
// tail of custom negotiations; 512 is generous.
const completionCacheCapacity = 512

// Solver answers configuration requests over one feature model. It is
// stateless apart from memoized per-feature subtree counts and a bounded
// completion cache, and safe for concurrent use.
type Solver struct {
	m *feature.Model

	mu   sync.Mutex
	ways map[string]*big.Int // feature name -> subtree config count (count.go)

	comp *cache.Cache // CachedComplete memo (one model per solver)
}

// New returns a solver over the model.
func New(m *feature.Model) *Solver {
	return &Solver{m: m, ways: map[string]*big.Int{}, comp: cache.New(completionCacheCapacity)}
}

// Model returns the model the solver answers for.
func (s *Solver) Model() *feature.Model { return s.m }

// Request is a partial configuration decision: features the client wants
// and features it refuses. Both lists accept duplicates; unknown feature
// names are request errors, not conflicts.
type Request struct {
	Require []string
	Forbid  []string
}

// normalize dedupes and sorts both lists and rejects unknown names.
func (s *Solver) normalize(req Request) (Request, error) {
	norm := func(in []string) ([]string, error) {
		seen := map[string]bool{}
		var out []string
		for _, name := range in {
			if s.m.Feature(name) == nil {
				return nil, fmt.Errorf("unknown feature %q", name)
			}
			if !seen[name] {
				seen[name] = true
				out = append(out, name)
			}
		}
		sort.Strings(out)
		return out, nil
	}
	var err error
	if req.Require, err = norm(req.Require); err != nil {
		return req, err
	}
	if req.Forbid, err = norm(req.Forbid); err != nil {
		return req, err
	}
	return req, nil
}

// Completion is a successful solve: the full valid configuration and the
// features the solver added beyond the request's Require list.
type Completion struct {
	Config *feature.Config
	Added  []string // sorted
}

// Complete extends the request to a minimal valid configuration. Exactly
// one of the three results is meaningful: a Completion when the request is
// feasible, a Conflict when it provably is not, or an error for malformed
// requests and exhausted search budgets.
func (s *Solver) Complete(req Request) (*Completion, *Conflict, error) {
	req, err := s.normalize(req)
	if err != nil {
		return nil, nil, err
	}
	cfg, err := s.m.Solve(req.Require, req.Forbid)
	if err != nil {
		if errors.Is(err, feature.ErrUnsatisfiable) {
			conflict, eerr := s.Explain(req)
			if eerr != nil {
				return nil, nil, eerr
			}
			if conflict == nil {
				// Solve proved unsat but every strict subset of the decision
				// atoms is feasible and so is the full set under re-check:
				// cannot happen with a deterministic solver, but fail loudly
				// rather than mask it.
				return nil, nil, fmt.Errorf("solver disagreement explaining: %v", err)
			}
			return nil, conflict, nil
		}
		return nil, nil, err
	}
	var added []string
	required := map[string]bool{}
	for _, name := range req.Require {
		required[name] = true
	}
	for _, name := range cfg.Names() {
		if !required[name] {
			added = append(added, name)
		}
	}
	return &Completion{Config: cfg, Added: added}, nil, nil
}

// completionResult is the memoized outcome of one Complete call — every
// branch is cacheable because all are deterministic functions of the
// normalized request (including the rare budget-exhaustion error).
type completionResult struct {
	comp *Completion
	conf *Conflict
	err  error
}

// CachedComplete is Complete behind the sharded single-flight cache: the
// solver runs once per distinct normalized (require, forbid) pair and
// repeats are answered from the memo, which lets /v1/configure
// mode=complete ride the admission fast path at parse-level throughput.
// Returned Completions and Conflicts are shared — callers must treat them
// (including Completion.Config) as immutable. Malformed requests (unknown
// feature names) error without touching the cache.
func (s *Solver) CachedComplete(req Request) (*Completion, *Conflict, error) {
	req, err := s.normalize(req)
	if err != nil {
		return nil, nil, err
	}
	// The normalized lists are sorted and deduped, so this payload is a
	// canonical spelling of the request; '\x00' cannot appear in feature
	// names, and the "R:"/"F:" sections keep require/forbid unambiguous.
	payload := "R:" + strings.Join(req.Require, "\x00") + "\x00F:" + strings.Join(req.Forbid, "\x00")
	v := s.comp.Fill(cache.KeyOf("complete", payload), func() any {
		comp, conf, err := s.Complete(req)
		return completionResult{comp: comp, conf: conf, err: err}
	})
	r, valid := v.(completionResult)
	if !valid {
		// A concurrent filler panicked; solve uncached.
		return s.Complete(req)
	}
	return r.comp, r.conf, r.err
}

// CompletionCacheStats snapshots the CachedComplete memo counters for
// metrics scraping.
func (s *Solver) CompletionCacheStats() cache.Stats { return s.comp.Stats() }
