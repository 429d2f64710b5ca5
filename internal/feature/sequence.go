package feature

import "fmt"

// Sequence resolves the composition sequence for a configuration: the
// selected features in the order their sub-grammars must be composed
// ("We use the notion of composition sequence that indicates how various
// features are included or excluded").
//
// The base order is diagram order, then pre-order within each diagram —
// parents (base specifications) compose before children (extensions), which
// satisfies the paper's optional-after-base and sublist-before-complex-list
// rules by construction. Requires constraints add precedence edges: if A
// requires B, B composes before A. The result is a stable topological
// order; a requires cycle among selected features is an error.
func (m *Model) Sequence(c *Config) ([]string, error) {
	// Base order: pre-order over diagrams, selected features only.
	// Selected features not in any diagram (unknown) are a Validate error;
	// they are ignored here.
	base := m.PreOrder(c)
	pos := make(map[string]int, len(base))
	for i, name := range base {
		pos[name] = i
	}

	// Precedence edges between base positions. Parent -> child keeps base
	// specifications ahead of their extensions even when other edges delay
	// the parent.
	succ := make([][]int, len(base))
	indeg := make([]int, len(base))
	edge := func(from, to int) {
		succ[from] = append(succ[from], to)
		indeg[to]++
	}
	for i, name := range base {
		if f := m.features[name]; f != nil && f.parent != nil {
			if p, ok := pos[f.parent.Name]; ok {
				edge(p, i)
			}
		}
	}
	for _, con := range m.Constraints {
		if con.Kind != Requires {
			continue
		}
		a, okA := pos[con.A]
		b, okB := pos[con.B]
		if okA && okB {
			edge(b, a) // B before A
		}
	}

	// Kahn's algorithm with a min-heap of base positions as the ready
	// list, so the output is the base order whenever constraints allow.
	var ready posHeap
	for i, d := range indeg {
		if d == 0 {
			ready = append(ready, i) // ascending, so already a heap
		}
	}
	out := make([]string, 0, len(base))
	for len(ready) > 0 {
		i := ready.pop()
		out = append(out, base[i])
		for _, next := range succ[i] {
			if indeg[next]--; indeg[next] == 0 {
				ready.push(next)
			}
		}
	}
	if len(out) != len(base) {
		var stuck []string
		for i, d := range indeg {
			if d > 0 {
				stuck = append(stuck, base[i])
			}
		}
		return nil, fmt.Errorf("requires cycle among selected features: %v", stuck)
	}
	return out, nil
}

// posHeap is Sequence's ready list: a min-heap of base positions.
type posHeap []int

func (h *posHeap) push(i int) {
	s := append(*h, i)
	for j := len(s) - 1; j > 0 && s[(j-1)/2] > s[j]; j = (j - 1) / 2 {
		s[j], s[(j-1)/2] = s[(j-1)/2], s[j]
	}
	*h = s
}

func (h *posHeap) pop() int {
	s := *h
	top, n := s[0], len(s)-1
	s[0], s = s[n], s[:n]
	for j := 0; ; {
		c := 2*j + 1
		if c+1 < n && s[c+1] < s[c] {
			c++
		}
		if c >= n || s[j] <= s[c] {
			break
		}
		s[j], s[c] = s[c], s[j]
		j = c
	}
	*h = s
	return top
}

// PreOrder returns the selected features in plain diagram pre-order, without
// the requires-constraint reordering Sequence applies. The first feature in
// pre-order is the product's conceptual root (its unit's start symbol
// becomes the product grammar's start symbol).
func (m *Model) PreOrder(c *Config) []string {
	var out []string
	for _, d := range m.Diagrams {
		d.WalkFeatures(func(f *Feature) {
			if c.Has(f.Name) {
				out = append(out, f.Name)
			}
		})
	}
	return out
}

// UnitSequence maps a composition sequence of features to the ordered list
// of grammar/token unit names they contribute, de-duplicated (several
// features may share a unit; the first occurrence wins).
func (m *Model) UnitSequence(order []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, name := range order {
		f := m.features[name]
		if f == nil {
			continue
		}
		for _, u := range f.Units {
			if !seen[u] {
				seen[u] = true
				out = append(out, u)
			}
		}
	}
	return out
}
