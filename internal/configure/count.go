package configure

import (
	"fmt"
	"math/big"
	"sort"
	"strings"

	"sqlspl/internal/feature"
)

// enumCap bounds how many candidate configurations the counting path will
// enumerate to filter intra-diagram constraints exactly; diagrams whose raw
// DP count exceeds it fall back to the unfiltered count marked inexact.
const enumCap = 1 << 14

// DiagramSpace is the valid-product count of one feature diagram, with the
// concept (root) selected. Counts are exact big integers — the SQL:2003
// model's query_specification diagram alone exceeds uint64.
type DiagramSpace struct {
	Diagram  string
	Features int
	Products *big.Int
	// Exact reports whether Products accounts for every constraint whose
	// both endpoints lie inside the diagram. When false, Products is the
	// unfiltered tree count (an upper bound) and Note says why.
	Exact bool
	Note  string
}

// waysOf returns the number of configurations of the subtree rooted at f,
// given that f is selected, ignoring constraints, in exact arithmetic.
// Memoized per solver.
func (s *Solver) waysOf(f *feature.Feature) *big.Int {
	s.mu.Lock()
	if n, ok := s.ways[f.Name]; ok {
		s.mu.Unlock()
		return n
	}
	s.mu.Unlock()
	var n *big.Int
	one := big.NewInt(1)
	switch f.Group {
	case feature.And:
		n = big.NewInt(1)
		for _, ch := range f.Children {
			w := new(big.Int).Set(s.waysOf(ch))
			if ch.Optional {
				w.Add(w, one)
			}
			n.Mul(n, w)
		}
	case feature.Or:
		if len(f.Children) == 0 {
			n = big.NewInt(1)
		} else {
			n = big.NewInt(1)
			for _, ch := range f.Children {
				w := new(big.Int).Add(s.waysOf(ch), one)
				n.Mul(n, w)
			}
			n.Sub(n, one) // the empty subset is not a valid Or choice
		}
	case feature.Alternative:
		n = new(big.Int)
		for _, ch := range f.Children {
			n.Add(n, s.waysOf(ch))
		}
		if n.Sign() == 0 {
			n = big.NewInt(1)
		}
	default:
		n = big.NewInt(1)
	}
	s.mu.Lock()
	s.ways[f.Name] = n
	s.mu.Unlock()
	return n
}

// intraConstraints returns the model constraints with both endpoints in
// the diagram — the only ones a per-diagram count can and must filter.
func (s *Solver) intraConstraints(d *feature.Diagram) []feature.Constraint {
	var out []feature.Constraint
	for _, con := range s.m.Constraints {
		if s.m.DiagramOf(con.A) == d && s.m.DiagramOf(con.B) == d {
			out = append(out, con)
		}
	}
	return out
}

// Space counts the valid product space of every diagram, in model order.
// Diagrams without intra-diagram constraints count exactly by DP over the
// tree; constrained diagrams enumerate-and-filter exactly when the raw
// count fits the enumeration cap, otherwise they report the unfiltered
// upper bound marked inexact.
func (s *Solver) Space() []DiagramSpace {
	out := make([]DiagramSpace, 0, len(s.m.Diagrams))
	for _, d := range s.m.Diagrams {
		ds := DiagramSpace{Diagram: d.Name, Features: d.Count(), Exact: true}
		intra := s.intraConstraints(d)
		raw := s.waysOf(d.Root)
		if len(intra) == 0 {
			ds.Products = raw
		} else if raw.IsInt64() && raw.Int64() <= enumCap {
			configs, complete, _ := s.Enumerate(d.Name, int(raw.Int64()))
			if !complete {
				// Cannot happen — the cap equals the raw count — but stay
				// honest if the enumerator ever clips.
				ds.Exact = false
				ds.Note = "enumeration clipped"
			}
			ds.Products = big.NewInt(int64(len(configs)))
		} else {
			ds.Products = raw
			ds.Exact = false
			cons := make([]string, len(intra))
			for i, con := range intra {
				cons[i] = con.String()
			}
			ds.Note = "upper bound; unfiltered constraints: " + strings.Join(cons, "; ")
		}
		out = append(out, ds)
	}
	return out
}

// Total multiplies the per-diagram counts into the whole-model product
// space (each diagram is independently absent or configured, so each
// contributes products+1 ways, and the grand total includes the empty
// configuration). Exact only when every diagram counted exactly AND no
// constraint couples two diagrams; the SQL:2003 model's constraints are
// all cross-diagram, so its total is an upper bound.
func (s *Solver) Total() (*big.Int, bool) {
	total := big.NewInt(1)
	one := big.NewInt(1)
	exact := true
	for _, ds := range s.Space() {
		total.Mul(total, new(big.Int).Add(ds.Products, one))
		exact = exact && ds.Exact
	}
	for _, con := range s.m.Constraints {
		if s.m.DiagramOf(con.A) != s.m.DiagramOf(con.B) {
			exact = false
			break
		}
	}
	return total, exact
}

// Enumerate lists the valid configurations of one diagram (feature-name
// lists, each sorted, in deterministic generation order), filtered by the
// diagram's intra-diagram constraints, up to limit. The boolean reports
// completeness: false means the space was clipped at the limit.
func (s *Solver) Enumerate(diagram string, limit int) ([][]string, bool, error) {
	var d *feature.Diagram
	for _, cand := range s.m.Diagrams {
		if cand.Name == diagram {
			d = cand
			break
		}
	}
	if d == nil {
		return nil, false, fmt.Errorf("unknown diagram %q", diagram)
	}
	if limit <= 0 {
		limit = 1
	}
	intra := s.intraConstraints(d)
	// Generate limit+1 candidates so clipping is observable after filtering.
	gen := &enumerator{cap: limit + 1}
	raw := gen.subtree(d.Root)
	var out [][]string
	clipped := gen.clipped
	for _, cfg := range raw {
		if !satisfiesIntra(cfg, intra) {
			continue
		}
		if len(out) == limit {
			clipped = true
			break
		}
		sorted := append([]string(nil), cfg...)
		sort.Strings(sorted)
		out = append(out, sorted)
	}
	return out, !clipped, nil
}

func satisfiesIntra(cfg []string, cons []feature.Constraint) bool {
	has := func(name string) bool {
		for _, n := range cfg {
			if n == name {
				return true
			}
		}
		return false
	}
	for _, con := range cons {
		switch con.Kind {
		case feature.Requires:
			if has(con.A) && !has(con.B) {
				return false
			}
		case feature.Excludes:
			if has(con.A) && has(con.B) {
				return false
			}
		}
	}
	return true
}

// enumerator generates subtree configurations depth-first with a global
// cap; order is deterministic (children in declaration order, absent
// before present for optional/Or members, alternative children in order).
type enumerator struct {
	cap     int
	clipped bool
}

func (e *enumerator) clip(configs [][]string) [][]string {
	if len(configs) > e.cap {
		e.clipped = true
		configs = configs[:e.cap]
	}
	return configs
}

// subtree returns the configurations of the subtree rooted at f, given f
// selected, each as a feature-name list that includes f.
func (e *enumerator) subtree(f *feature.Feature) [][]string {
	base := [][]string{{f.Name}}
	switch f.Group {
	case feature.And:
		for _, ch := range f.Children {
			opts := e.subtree(ch)
			if ch.Optional {
				opts = append([][]string{nil}, opts...)
			}
			base = e.cross(base, opts)
		}
	case feature.Or:
		if len(f.Children) == 0 {
			return base
		}
		combos := [][]string{nil}
		for _, ch := range f.Children {
			opts := append([][]string{nil}, e.subtree(ch)...)
			combos = e.cross(combos, opts)
		}
		var nonEmpty [][]string
		for _, c := range combos {
			if len(c) > 0 {
				nonEmpty = append(nonEmpty, c)
			}
		}
		base = e.cross(base, nonEmpty)
	case feature.Alternative:
		if len(f.Children) == 0 {
			return base
		}
		var alts [][]string
		for _, ch := range f.Children {
			alts = append(alts, e.subtree(ch)...)
		}
		base = e.cross(base, e.clip(alts))
	}
	return base
}

func (e *enumerator) cross(a, b [][]string) [][]string {
	out := make([][]string, 0, len(a)*len(b))
	for _, x := range a {
		for _, y := range b {
			merged := make([]string, 0, len(x)+len(y))
			merged = append(merged, x...)
			merged = append(merged, y...)
			out = append(out, merged)
			if len(out) >= e.cap {
				if len(a)*len(b) > e.cap {
					e.clipped = true
				}
				return out
			}
		}
	}
	return out
}
