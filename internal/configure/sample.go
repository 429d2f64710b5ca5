package configure

import (
	"fmt"
	"math/big"
	"math/rand"

	"sqlspl/internal/feature"
)

// Sampler draws uniformly-ish valid configurations from the solved product
// space; it is the feature model's one sampler. Every random choice is
// weighted by the exact subtree counts (count.go), so within one diagram
// each valid subtree configuration is (up to Or-group conditioning)
// equally likely; cross-tree constraints are then discharged by the
// deterministic solver (Complete), which adds the minimal forced
// remainder instead of re-rolling. A Sampler is a pure function of
// (model, seed, diagramP, must) and not safe for concurrent use; create
// one per goroutine.
type Sampler struct {
	s        *Solver
	rng      *rand.Rand
	diagramP float64
	must     []string
	base     *feature.Config // closure of must, computed once
	dead     map[string]bool // dead features, never descended into
}

// NewSampler returns a deterministic sampler. diagramP is the probability
// of including each diagram not already forced by must (the closure of
// must always keeps its diagrams). Unknown must-features are errors.
func (s *Solver) NewSampler(seed int64, diagramP float64, must ...string) (*Sampler, error) {
	for _, name := range must {
		if s.m.Feature(name) == nil {
			return nil, fmt.Errorf("unknown feature %q", name)
		}
	}
	dead := map[string]bool{}
	for _, n := range s.m.DeadFeatures() {
		dead[n] = true
	}
	return &Sampler{
		s:        s,
		rng:      rand.New(rand.NewSource(seed)),
		diagramP: diagramP,
		must:     append([]string(nil), must...),
		base:     s.m.Close(feature.NewConfig(must...)),
		dead:     dead,
	}, nil
}

// pSelect is the inclusion probability of an optional or Or-group child:
// ways/(ways+1), the fraction of parent configurations that include the
// child — the weight that makes subtree draws uniform.
func (sa *Sampler) pSelect(f *feature.Feature) float64 {
	w := sa.s.waysOf(f)
	denom := new(big.Float).SetInt(new(big.Int).Add(w, big.NewInt(1)))
	p, _ := new(big.Float).Quo(new(big.Float).SetInt(w), denom).Float64()
	return p
}

// Next draws one valid configuration. Successive calls advance the seeded
// stream, so a fixed (seed, n) prefix is byte-deterministic.
func (sa *Sampler) Next() (*feature.Config, error) {
	cfg := sa.base.Clone()
	for _, d := range sa.s.m.Diagrams {
		if cfg.Has(d.Root.Name) || sa.rng.Float64() < sa.diagramP {
			sa.descend(cfg, d.Root)
		}
	}
	// Discharge cross-tree constraints with the deterministic solver. When
	// the sampled seed is infeasible (impossible on the SQL model, whose
	// constraints are all requires, but synthetic models with excludes can
	// get here), drop the conflicting sampled decisions — never the
	// client's must-features — and retry.
	req := Request{Require: cfg.Names()}
	mustSet := map[string]bool{}
	for _, n := range sa.must {
		mustSet[n] = true
	}
	for attempt := 0; attempt < 16; attempt++ {
		comp, conflict, err := sa.s.Complete(req)
		if err != nil {
			return nil, err
		}
		if conflict == nil {
			return comp.Config, nil
		}
		drop := map[string]bool{}
		for _, dec := range conflict.Decisions {
			const p = "require:"
			if len(dec) > len(p) && dec[:len(p)] == p && !mustSet[dec[len(p):]] {
				drop[dec[len(p):]] = true
			}
		}
		if len(drop) == 0 {
			return nil, fmt.Errorf("sampled seed conflicts with must-features: %s", conflict)
		}
		var next []string
		for _, n := range req.Require {
			if !drop[n] {
				next = append(next, n)
			}
		}
		req.Require = next
	}
	return nil, fmt.Errorf("sample repair did not converge")
}

// descend selects f and samples its children by subtree weight. Children
// already present in cfg (must-features and their closure) stay selected
// and are descended so their own group obligations get sampled choices.
func (sa *Sampler) descend(cfg *feature.Config, f *feature.Feature) {
	cfg.Select(f.Name)
	dead := sa.dead
	switch f.Group {
	case feature.And:
		for _, ch := range f.Children {
			if dead[ch.Name] {
				continue
			}
			if !ch.Optional || cfg.Has(ch.Name) || sa.rng.Float64() < sa.pSelect(ch) {
				sa.descend(cfg, ch)
			}
		}
	case feature.Or:
		var alive []*feature.Feature
		picked := false
		for _, ch := range f.Children {
			if dead[ch.Name] {
				continue
			}
			alive = append(alive, ch)
			if cfg.Has(ch.Name) {
				sa.descend(cfg, ch)
				picked = true
			}
		}
		if len(alive) == 0 {
			return
		}
		if picked {
			// The group is satisfied by forced members; still give the
			// remaining children their weighted chance.
			for _, ch := range alive {
				if !cfg.Has(ch.Name) && sa.rng.Float64() < sa.pSelect(ch) {
					sa.descend(cfg, ch)
				}
			}
			return
		}
		// Condition on a non-empty choice: independent weighted coins with
		// bounded resampling, then a weighted single pick as the fallback.
		for round := 0; round < 8 && !picked; round++ {
			for _, ch := range alive {
				if sa.rng.Float64() < sa.pSelect(ch) {
					sa.descend(cfg, ch)
					picked = true
				}
			}
		}
		if !picked {
			sa.descend(cfg, sa.weightedPick(alive))
		}
	case feature.Alternative:
		var alive []*feature.Feature
		for _, ch := range f.Children {
			if cfg.Has(ch.Name) {
				// A forced child decides the alternative.
				sa.descend(cfg, ch)
				return
			}
			if !dead[ch.Name] {
				alive = append(alive, ch)
			}
		}
		if len(alive) > 0 {
			sa.descend(cfg, sa.weightedPick(alive))
		}
	}
}

// weightedPick draws one child with probability proportional to its
// subtree count. Ratios are taken in big.Float first so astronomically
// large counts (common in the SQL model) never overflow to +Inf.
func (sa *Sampler) weightedPick(children []*feature.Feature) *feature.Feature {
	total := new(big.Float)
	ws := make([]*big.Float, len(children))
	for i, ch := range children {
		ws[i] = new(big.Float).SetInt(sa.s.waysOf(ch))
		total.Add(total, ws[i])
	}
	if total.Sign() <= 0 {
		return children[0]
	}
	r := sa.rng.Float64()
	acc := 0.0
	for i, w := range ws {
		frac, _ := new(big.Float).Quo(w, total).Float64()
		acc += frac
		if r < acc {
			return children[i]
		}
	}
	return children[len(children)-1]
}
