package feature

import (
	"fmt"
	"sort"
	"strings"
)

// Violation is one way a configuration breaks the feature model.
type Violation struct {
	// Feature is the primary feature involved.
	Feature string
	// Msg explains the violation.
	Msg string
}

// String renders the violation.
func (v Violation) String() string { return fmt.Sprintf("%s: %s", v.Feature, v.Msg) }

// ConfigError aggregates all violations found by Validate.
type ConfigError struct {
	Violations []Violation
}

// Error implements error.
func (e *ConfigError) Error() string {
	parts := make([]string, len(e.Violations))
	for i, v := range e.Violations {
		parts[i] = v.String()
	}
	return "invalid configuration: " + strings.Join(parts, "; ")
}

// Validate checks a feature-instance description against the model:
//
//   - every selected feature must exist;
//   - the parent of every selected feature must be selected (instance
//     descriptions traverse the diagram from the concept);
//   - every mandatory And-child of a selected feature must be selected;
//   - an Or group with a selected parent needs at least one selected child;
//   - an Alternative group with a selected parent needs exactly one;
//   - children of unselected Or/Alternative parents must not be selected
//     (covered by the parent rule);
//   - requires/excludes constraints must hold.
//
// It returns nil when the configuration is a valid product.
func (m *Model) Validate(c *Config) error {
	var vs []Violation
	add := func(feature, format string, args ...any) {
		vs = append(vs, Violation{Feature: feature, Msg: fmt.Sprintf(format, args...)})
	}

	for _, name := range c.Names() {
		f := m.features[name]
		if f == nil {
			add(name, "unknown feature")
			continue
		}
		if f.parent != nil && !c.Has(f.parent.Name) {
			add(name, "selected without its parent %s", f.parent.Name)
		}
	}

	for _, d := range m.Diagrams {
		d.WalkFeatures(func(f *Feature) {
			if !c.Has(f.Name) {
				return
			}
			switch f.Group {
			case And:
				for _, ch := range f.Children {
					if !ch.Optional && !c.Has(ch.Name) {
						add(ch.Name, "mandatory under selected %s but not selected", f.Name)
					}
				}
			case Or:
				if len(f.Children) > 0 && countSelected(c, f.Children) == 0 {
					add(f.Name, "or-group requires at least one of %s", childNames(f))
				}
			case Alternative:
				if n := countSelected(c, f.Children); len(f.Children) > 0 && n != 1 {
					add(f.Name, "alternative-group requires exactly one of %s, have %d", childNames(f), n)
				}
			}
		})
	}

	for _, con := range m.Constraints {
		switch con.Kind {
		case Requires:
			if c.Has(con.A) && !c.Has(con.B) {
				add(con.A, "requires %s", con.B)
			}
		case Excludes:
			if c.Has(con.A) && c.Has(con.B) {
				add(con.A, "excludes %s", con.B)
			}
		}
	}

	if len(vs) == 0 {
		return nil
	}
	sort.Slice(vs, func(i, j int) bool {
		if vs[i].Feature != vs[j].Feature {
			return vs[i].Feature < vs[j].Feature
		}
		return vs[i].Msg < vs[j].Msg
	})
	return &ConfigError{Violations: vs}
}

func countSelected(c *Config, fs []*Feature) int {
	n := 0
	for _, f := range fs {
		if c.Has(f.Name) {
			n++
		}
	}
	return n
}

func childNames(f *Feature) string {
	names := make([]string, len(f.Children))
	for i, c := range f.Children {
		names[i] = c.Name
	}
	return "{" + strings.Join(names, ", ") + "}"
}

// Close extends a configuration to a valid product where that is possible
// mechanically: it adds ancestors of selected features, mandatory And
// children of selected features, and requires-targets, iterating to a fixed
// point. It does not choose among Or/Alternative children — those choices
// belong to the user — so Validate may still fail after Close.
func (m *Model) Close(c *Config) *Config {
	out := c.Clone()
	for changed := true; changed; {
		changed = false
		for _, name := range out.Names() {
			f := m.features[name]
			if f == nil {
				continue
			}
			if f.parent != nil && !out.Has(f.parent.Name) {
				out.Select(f.parent.Name)
				changed = true
			}
			if f.Group == And {
				for _, ch := range f.Children {
					if !ch.Optional && !out.Has(ch.Name) {
						out.Select(ch.Name)
						changed = true
					}
				}
			}
		}
		for _, con := range m.Constraints {
			if con.Kind == Requires && out.Has(con.A) && !out.Has(con.B) {
				out.Select(con.B)
				changed = true
			}
		}
	}
	return out
}
