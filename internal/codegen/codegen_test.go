package codegen

import (
	"bufio"
	"fmt"
	"go/ast"
	goparser "go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"sqlspl/internal/dialect"
	"sqlspl/internal/grammar"
	"sqlspl/internal/parser"
)

func TestGenerateMinimalSource(t *testing.T) {
	p, err := dialect.Build(dialect.Minimal)
	if err != nil {
		t.Fatal(err)
	}
	src, err := Generate(p.Parser, "minsql")
	if err != nil {
		t.Fatal(err)
	}
	text := string(src)
	for _, want := range []string{
		"package minsql",
		"DO NOT EDIT",
		`"query_specification",`,
		`"SELECT":`,
		`"WHERE":`,
		"var bs0 = Bits{",
		"type Run struct",
		"func Parse(src string)",
		"func Accepts(src string)",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("generated source missing %q", want)
		}
	}
	// Unselected keywords must not leak into the generated keyword table.
	for _, no := range []string{`"GROUP"`, `"ORDER"`, `"INSERT"`} {
		if strings.Contains(text, no) {
			t.Errorf("generated source leaks unselected keyword %s", no)
		}
	}
	// The combinator layer, its runtime finalize step and the emitted
	// per-production functions are gone: the product is data the
	// runtime's passes walk.
	for _, no := range []string{"register(", "func finalize", "pfunc", "var predict", "func p0("} {
		if strings.Contains(text, no) {
			t.Errorf("generated source still contains emitted-code artifact %q", no)
		}
	}
	// The standalone file inlines the runtime: it imports only the
	// standard library.
	f, err := goparser.ParseFile(token.NewFileSet(), "parser.go", src, goparser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, im := range f.Imports {
		if path := strings.Trim(im.Path.Value, `"`); strings.Contains(path, ".") || strings.HasPrefix(path, "sqlspl") {
			t.Errorf("standalone parser imports non-standard package %s", path)
		}
	}
}

// TestGeneratePackageSharesRuntime: the package form emits the same
// declarations as the standalone file but imports the runtime instead of
// declaring it, and declares no function at all: a generated parser is
// data.
func TestGeneratePackageSharesRuntime(t *testing.T) {
	p, err := dialect.Build(dialect.Minimal)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := GeneratePackage(p.Parser, "minsql")
	if err != nil {
		t.Fatal(err)
	}
	standalone, err := Generate(p.Parser, "minsql")
	if err != nil {
		t.Fatal(err)
	}
	text := string(pkg)
	if !strings.Contains(text, `import . "sqlspl/internal/codegen/rt"`) {
		t.Error("package form does not import the shared runtime")
	}
	for _, no := range []string{"type ", "func (", "func Parse", "func Check"} {
		if strings.Contains(text, no) {
			t.Errorf("package form declares %q; it should come from the runtime", no)
		}
	}
	f, err := goparser.ParseFile(token.NewFileSet(), "parser.go", pkg, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok {
			t.Errorf("package form declares func %s", fn.Name.Name)
		}
	}
	body := text[strings.Index(text, "// product is"):]
	if !strings.HasSuffix(string(standalone), body) {
		t.Error("package form's declarations differ from the standalone file's")
	}
}

// TestGenerateRejectsInvalidGrammar: an invalid grammar never becomes
// generated source. parser.New refuses it, so there is no parser to print,
// and both generators reject what it did not build (nil or the zero
// value) with an error rather than a panic.
func TestGenerateRejectsInvalidGrammar(t *testing.T) {
	ts := grammar.MustParseTokens(`tokens bad ; A : 'A' ;`)
	for _, src := range []string{
		`grammar bad ; s : missing ;`,   // undefined nonterminal
		`grammar bad ; s : s A | A ;`,   // left recursion
		`grammar bad ; s : A UNKNOWN ;`, // token missing from the set
	} {
		p, err := parser.New(grammar.MustParseGrammar(src), ts, parser.Options{})
		if err == nil {
			t.Errorf("%s: parser.New accepted the grammar", src)
			continue
		}
		for _, bad := range []*parser.Parser{p, {}} {
			for form, gen := range map[string]func(*parser.Parser, string) ([]byte, error){
				"Generate": Generate, "GeneratePackage": GeneratePackage,
			} {
				if out, err := gen(bad, "x"); err == nil || out != nil {
					t.Errorf("%s: %s printed a parser parser.New did not build", src, form)
				}
			}
		}
	}
}

// TestGeneratePackageName: the package name must be a Go identifier, and
// the error names it instead of dumping the generated source; an empty
// name defaults to sqlparser.
func TestGeneratePackageName(t *testing.T) {
	p, err := dialect.Build(dialect.Minimal)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		pkg    string
		clause string // "" = rejected
	}{
		{pkg: "func"},
		{pkg: "my-pkg"},
		{pkg: "1abc"},
		{pkg: "", clause: "package sqlparser"},
		{pkg: "minsql", clause: "package minsql"},
	} {
		src, err := Generate(p.Parser, tc.pkg)
		if tc.clause == "" {
			if err == nil {
				t.Errorf("package name %q accepted", tc.pkg)
			} else if msg := err.Error(); !strings.Contains(msg, fmt.Sprintf("%q", tc.pkg)) || len(msg) > 200 {
				t.Errorf("package name %q: error %.300q does not name it briefly", tc.pkg, msg)
			}
			continue
		}
		if err != nil {
			t.Errorf("package name %q: %v", tc.pkg, err)
		} else if !strings.Contains(string(src), tc.clause+"\n") {
			t.Errorf("package name %q: source lacks %q", tc.pkg, tc.clause)
		}
	}
}

// TestGeneratedParserEndToEnd compiles the standalone parser with the real
// Go toolchain and checks that it agrees with the interpreted engine: the
// same Accepts verdict on every input, and the same Check error text on
// rejected ones. minimal binds 3 of the 8 lexical classes; full binds all
// of them.
func TestGeneratedParserEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a generated module; skipped with -short")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain unavailable")
	}
	common := []string{
		"SELECT a FROM t",
		"SELECT DISTINCT a FROM t WHERE b = 1",
		"SELECT ALL a FROM t WHERE b = 'x'",
		"SELECT a, b FROM t",
		"SELECT * FROM t",
		"select a from t where c = 42",
		`SELECT "a" FROM t WHERE b = 1.5E3`,
		"SELECT a FROM t WHERE b = X'0F' AND c = :h AND d = ?",
		"SELECT 'x', 42 FROM t",
		"SELECT a FROM",                 // end of input
		"SELECT 'unterminated FROM t",   // unterminated string
		"SELECT a FROM t WHERE b = 1.5", // numeric class unbound in minimal
		"SELECT # FROM t",
		"SELECT a b c FROM t",
		"SELECT a FROM t )",
		"nonsense here",
		"/* unterminated comment",
	}
	for _, tc := range []struct {
		name    dialect.Name
		classes int
	}{{dialect.Minimal, 3}, {dialect.Full, 8}} {
		t.Run(string(tc.name), func(t *testing.T) {
			p, err := dialect.Build(tc.name)
			if err != nil {
				t.Fatal(err)
			}
			bound := map[string]bool{}
			for _, d := range p.Tokens.Defs() {
				if d.Kind == grammar.Class {
					bound[d.Text] = true
				}
			}
			if len(bound) != tc.classes {
				t.Fatalf("%s binds %d lexical classes, want %d", tc.name, len(bound), tc.classes)
			}
			got := runStandalone(t, p.Parser, common)
			rejected := 0
			for i, q := range common {
				want := "ACCEPT\tok"
				if !p.Accepts(q) {
					want = "REJECT\t" + p.Check(q).Error()
					rejected++
				}
				if got[i] != want {
					t.Errorf("%q:\n  generated:   %s\n  interpreted: %s", q, got[i], want)
				}
			}
			if rejected < 5 {
				t.Errorf("only %d inputs rejected; the corpus must exercise Check's errors", rejected)
			}
		})
	}
}

// runStandalone compiles the standalone form of p into a throwaway module
// and returns, per query, "ACCEPT\tok" or "REJECT\t" plus Check's error
// text.
func runStandalone(t *testing.T, p *parser.Parser, queries []string) []string {
	t.Helper()
	src, err := Generate(p, "main")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module genparser\n\ngo 1.22\n")
	write("parser.go", string(src))
	write("main.go", `package main

import (
	"bufio"
	"fmt"
	"os"
)

func main() {
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		q := sc.Text()
		verdict, msg := "REJECT", "ok"
		if Accepts(q) {
			verdict = "ACCEPT"
		}
		if err := Check(q); err != nil {
			msg = err.Error()
		}
		fmt.Printf("%s\t%s\n", verdict, msg)
	}
}
`)
	cmd := exec.Command("go", "run", ".")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod")
	cmd.Stdin = strings.NewReader(strings.Join(queries, "\n") + "\n")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go run failed: %v\n%s", err, out)
	}
	var got []string
	sc := bufio.NewScanner(strings.NewReader(string(out)))
	for sc.Scan() {
		got = append(got, sc.Text())
	}
	if len(got) != len(queries) {
		t.Fatalf("driver produced %d lines, want %d:\n%s", len(got), len(queries), out)
	}
	return got
}
