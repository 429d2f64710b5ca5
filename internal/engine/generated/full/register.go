// Code generated by sqlspl/internal/engine/gen. DO NOT EDIT.

package full

import "sqlspl/internal/engine"

// Fingerprint is the catalog fingerprint this parser registers under.
const Fingerprint = "2a6ff35d136b20a7f74e77996f95c7714bf2cfafdb759ecd893910736ef36027"

func init() {
	engine.Register(engine.Generated{
		Preset:      "full",
		Fingerprint: Fingerprint,
		Parser:      product,
	})
}
