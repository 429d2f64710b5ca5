// Code generated by sqlspl/internal/engine/gen. DO NOT EDIT.

package tinysql

import "sqlspl/internal/engine"

// Fingerprint is the catalog fingerprint this parser registers under.
const Fingerprint = "37dc2ff6606dfa3e5949007bb78bdb44c7c6afe567e3e7e9009fb0c9bc5e4505"

func init() {
	engine.Register(engine.Generated{
		Preset:      "tinysql",
		Fingerprint: Fingerprint,
		Parser:      product,
	})
}
