// Code generated by sqlspl/internal/engine/gen. DO NOT EDIT.

package scql

import "sqlspl/internal/engine"

// Fingerprint is the catalog fingerprint this parser registers under.
const Fingerprint = "f3dde73a5a3f9e65a488271f39585eb09af7fe5fd953d2301259c73f6761f032"

func init() {
	engine.Register(engine.Generated{
		Preset:      "scql",
		Fingerprint: Fingerprint,
		Parser:      product,
	})
}
