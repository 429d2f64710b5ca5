// Package generated holds the pregenerated parsers for the shipped preset
// dialects — one subpackage per preset, emitted by internal/codegen and
// registered with the engine seam (internal/engine) at init time under the
// preset's catalog fingerprint. Each subpackage holds only its product's
// data: parser.go has one rt.Parser literal — scanner tables, display
// names and the grammar program, whose FIRST sets are package-level
// bitset literals — that the shared runtime (internal/codegen/rt) walks,
// and register.go has the fingerprint and the registration. Neither file
// declares a function besides register.go's init.
//
// Import this package (blank) to link every preset's generated parser into
// a binary; the product catalog then auto-promotes matching products to
// their generated engines. The serving surface (internal/server, the cmds,
// the examples) does so; library code deliberately does not, so embedders
// who want interpreted-only binaries simply omit the import.
//
// Regenerate after any grammar, token-set, codegen, or fingerprint change:
//
//	go generate ./internal/engine/generated
//
// CI runs go generate and fails on a dirty diff, so the checked-in parsers
// cannot drift silently; even if they did, promotion compares each
// registered parser with the freshly built product's, field by field, and
// falls back to the interpreted engine on any difference.
package generated

//go:generate go run sqlspl/internal/engine/gen
