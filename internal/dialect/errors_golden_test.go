package dialect

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sqlspl/internal/engine"
	"sqlspl/internal/parser"
)

// goldenErrorInputs are representative malformed queries per dialect. Each
// must be REJECTED; the golden file freezes the full SyntaxError rendering
// (line, column, found token, expected set), so error-message regressions —
// a worse expected-set after a grammar refactor, a position drift in the
// scanner — show up as a readable diff.
var goldenErrorInputs = map[Name][]string{
	Minimal: {
		"SELECT",
		"SELECT a FROM",
		"SELECT a b FROM t",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t WHERE x = ",
	},
	TinySQL: {
		"SELECT * FROM sensors SAMPLE",
		"SELECT * FROM sensors SAMPLE PERIOD",
		"SELECT * FROM sensors EPOCH",
		"SELECT avg ( temp FROM sensors",
	},
	SCQL: {
		"DECLARE c CURSOR FOR",
		"GRANT SELECT ON t",
		"UPDATE t SET a = 1 WHERE CURRENT OF",
		"SELECT a FROM t )",
		"CLOSE",
	},
	Core: {
		"SELECT a FROM t WHERE",
		"SELECT a AS FROM t",
		"SELECT a FROM t GROUP",
		"SELECT a FROM t ORDER BY",
		"INSERT INTO t VALUES",
		"UPDATE t SET",
		"DELETE t",
		"CREATE TABLE t ( )",
		"SELECT a FROM t WHERE a BETWEEN 1",
		"SELECT a FROM t )",
	},
	Warehouse: {
		"SELECT a FROM t UNION",
		"SELECT RANK ( ) OVER FROM t",
		"SELECT a FROM t GROUP BY ROLLUP",
		"WITH q AS SELECT a FROM t",
	},
	Full: {
		"SELECT a FROM t WHERE a IN (",
		"SELECT CASE WHEN a THEN b FROM t",
		"MERGE INTO t USING",
		"SELECT a FROM t )",
		"WITH RECURSIVE q AS ( SELECT a FROM t",
	},
}

// TestSyntaxErrorGolden locks the rendered error for every input above,
// and holds the other error paths to it: the product's Check and the
// promoted generated engine's Parse and Check must render each input's
// error exactly as the product's Parse does. Refresh with
// UPDATE_GOLDEN=1 go test ./internal/dialect -run Golden.
func TestSyntaxErrorGolden(t *testing.T) {
	for _, name := range Names() {
		inputs, ok := goldenErrorInputs[name]
		if !ok {
			continue
		}
		name := name
		t.Run(string(name), func(t *testing.T) {
			p, eng, err := Resolve(name)
			if err != nil {
				t.Fatalf("Resolve(%s): %v", name, err)
			}
			if kind := eng.Info().Kind; kind != engine.KindGenerated {
				t.Fatalf("%s resolves to the %s engine, want the generated one", name, kind)
			}
			var b strings.Builder
			for _, in := range inputs {
				_, perr := p.Parse(in)
				if perr == nil {
					t.Fatalf("input unexpectedly accepted by %s: %q", name, in)
				}
				var serr *parser.SyntaxError
				if !errors.As(perr, &serr) {
					t.Fatalf("error for %q is %T, want *parser.SyntaxError: %v", in, perr, perr)
				}
				if serr.Line < 1 || serr.Col < 1 || serr.Found == "" {
					t.Errorf("degenerate SyntaxError for %q: %+v", in, serr)
				}
				_, genParse := eng.Parse(in)
				for path, other := range map[string]error{
					"product Check":   p.Check(in),
					"generated Parse": genParse,
					"generated Check": eng.Check(in),
				} {
					if other == nil || other.Error() != perr.Error() {
						t.Errorf("%s of %q: %v, want %v", path, in, other, perr)
					}
				}
				fmt.Fprintf(&b, "input: %s\nerror: %v\n\n", in, perr)
			}
			matchGolden(t, string(name)+"_errors.golden", b.String())
		})
	}
}

// matchGolden compares got with the golden file testdata/golden/<file>,
// or rewrites the file when UPDATE_GOLDEN is set.
func matchGolden(t *testing.T, file, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", file)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("output drifted from %s.\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}
