// Code generated by sqlspl/internal/engine/gen. DO NOT EDIT.

package warehouse

import "sqlspl/internal/engine"

// Fingerprint is the catalog fingerprint this parser registers under.
const Fingerprint = "bf15639d00eb57bd5fed9048ea7a47c31b3cc1b6609827f117190d87be3a1ed0"

func init() {
	engine.Register(engine.Generated{
		Preset:      "warehouse",
		Fingerprint: Fingerprint,
		Parser:      product,
	})
}
