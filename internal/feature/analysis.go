package feature

import (
	"errors"
	"sort"
)

// This file provides the product-line analysis the feature model itself
// needs: dead features. Sampling and counting valid configurations are the
// configuration solver's (package configure).

// DeadFeatures returns features that cannot appear in any valid
// configuration of the model: Solve proves {f} unsatisfiable. This is the
// exact product-line definition of dead — it subsumes the older closure
// check (forced set trips an excludes constraint, pinned as a reference in
// the tests) and additionally catches deaths that need group reasoning,
// such as a feature whose requires-targets sit in the same alternative
// group. A feature whose solve exhausts the search budget is reported
// alive (conservative). The result is computed once per model and cached;
// Model is immutable after NewModel, so the cache never staleness-checks.
func (m *Model) DeadFeatures() []string {
	m.deadOnce.Do(func() {
		for _, name := range m.FeatureNames() {
			if _, err := m.Solve([]string{name}, nil); errors.Is(err, ErrUnsatisfiable) {
				m.deadList = append(m.deadList, name)
			}
		}
		sort.Strings(m.deadList)
	})
	return append([]string(nil), m.deadList...)
}
