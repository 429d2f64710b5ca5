// Command gen regenerates the pregenerated preset parsers under
// internal/engine/generated — the build-time compilation step behind the
// generated engine backend. For every shipped preset it composes the
// product, prints its parser with internal/codegen as a package on the
// shared runtime (internal/codegen/rt) — one rt.Parser literal of tables
// and grammar program, no functions — and writes a registration file
// that registers the parser under the product's catalog fingerprint.
//
// Invoked by the go:generate directive in internal/engine/generated; run
// directly as
//
//	go run sqlspl/internal/engine/gen [-out dir]
//
// The command deliberately does not import the generated packages it
// overwrites, so a stale or broken checked-in parser never blocks its own
// regeneration.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"go/format"
	"log"
	"os"
	"path/filepath"

	"sqlspl/internal/codegen"
	"sqlspl/internal/dialect"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("engine/gen: ")
	out := flag.String("out", ".", "directory to write the preset packages into")
	flag.Parse()

	var imports bytes.Buffer
	imports.WriteString(importsHeader)
	for _, name := range dialect.Names() {
		if err := generatePreset(name, *out); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(&imports, "\t_ \"sqlspl/internal/engine/generated/%s\"\n", name)
		log.Printf("%s: regenerated", name)
	}
	imports.WriteString(")\n")
	src, err := format.Source(imports.Bytes())
	if err != nil {
		log.Fatalf("imports.go does not format: %v", err)
	}
	if err := os.WriteFile(filepath.Join(*out, "imports.go"), src, 0o644); err != nil {
		log.Fatal(err)
	}
}

func generatePreset(name dialect.Name, out string) error {
	// The fingerprint comes from the preset table the server resolves
	// through, so the parser registers under exactly the key it is looked
	// up by.
	sel, err := dialect.Selection(name)
	if err != nil {
		return err
	}
	fp := sel.Fingerprint()
	p, err := dialect.Build(name)
	if err != nil {
		return err
	}

	parserSrc, err := codegen.GeneratePackage(p.Parser, string(name))
	if err != nil {
		return err
	}
	regSrc, err := registration(string(name), fp)
	if err != nil {
		return err
	}

	dir := filepath.Join(out, string(name))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "parser.go"), parserSrc, 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "register.go"), regSrc, 0o644)
}

const importsHeader = `// Code generated by sqlspl/internal/engine/gen. DO NOT EDIT.

package generated

// Linking this package pulls every pregenerated preset parser into the
// binary; each registers itself with internal/engine at init time.
import (
`

// registration renders a preset package's register.go: the fingerprint
// and the init-time registration of the package's runtime parser, which
// the engine seam serves directly.
func registration(pkg, fingerprint string) ([]byte, error) {
	var b bytes.Buffer
	fmt.Fprintf(&b, `// Code generated by sqlspl/internal/engine/gen. DO NOT EDIT.

package %s

import "sqlspl/internal/engine"

// Fingerprint is the catalog fingerprint this parser registers under.
const Fingerprint = %q

func init() {
	engine.Register(engine.Generated{
		Preset:      %q,
		Fingerprint: Fingerprint,
		Parser:      product,
	})
}
`, pkg, fingerprint, pkg)
	return format.Source(b.Bytes())
}
