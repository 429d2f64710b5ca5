// Code generated by sqlspl/internal/engine/gen. DO NOT EDIT.

package core

import "sqlspl/internal/engine"

// Fingerprint is the catalog fingerprint this parser registers under.
const Fingerprint = "b099ca16346a4e077363a693f6624811f3135b5f700dacd45d39a15099819267"

func init() {
	engine.Register(engine.Generated{
		Preset:      "core",
		Fingerprint: Fingerprint,
		Parser:      product,
	})
}
