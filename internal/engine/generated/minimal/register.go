// Code generated by sqlspl/internal/engine/gen. DO NOT EDIT.

package minimal

import "sqlspl/internal/engine"

// Fingerprint is the catalog fingerprint this parser registers under.
const Fingerprint = "f3ad629f8d3a13871c2e96ddd4a514c1632ce7e214b8bdf6488155574f9fa50b"

func init() {
	engine.Register(engine.Generated{
		Preset:      "minimal",
		Fingerprint: Fingerprint,
		Parser:      product,
	})
}
