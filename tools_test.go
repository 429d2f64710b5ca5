package sqlspl_test

// Smoke tests that build and run every executable and example with the real
// toolchain, so the user-facing entry points cannot rot silently. Skipped
// with -short.

import (
	"os/exec"
	"strings"
	"testing"
)

func runTool(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run"}, args...)...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go run %v: %v\n%s", args, err, out)
	}
	return string(out)
}

func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles executables; skipped with -short")
	}
	for _, ex := range []string{"quickstart", "sensornet", "smartcard", "extension", "warehouse"} {
		ex := ex
		t.Run(ex, func(t *testing.T) {
			t.Parallel()
			out := runTool(t, "./examples/"+ex)
			if len(out) < 100 {
				t.Errorf("suspiciously short output:\n%s", out)
			}
		})
	}
}

func TestCLIsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles executables; skipped with -short")
	}
	t.Run("sqlinventory", func(t *testing.T) {
		t.Parallel()
		out := runTool(t, "./cmd/sqlinventory")
		for _, want := range []string{"query_specification", "table_expression", "feature diagrams"} {
			if !strings.Contains(out, want) {
				t.Errorf("inventory output missing %q", want)
			}
		}
	})
	t.Run("sqlinventory-matches-sqlconfig-count", func(t *testing.T) {
		t.Parallel()
		// Both tools report the product count of every diagram, and the
		// configuration solver is the one counter: they must agree row
		// by row.
		counted := map[string]string{}
		for _, line := range strings.Split(runTool(t, "./cmd/sqlconfig", "-mode", "count"), "\n") {
			f := strings.Fields(line)
			if len(f) >= 5 && f[2] == "features" && f[4] == "products" {
				counted[f[0]] = f[3]
			}
		}
		rows := 0
		for _, line := range strings.Split(runTool(t, "./cmd/sqlinventory"), "\n") {
			f := strings.Fields(line)
			if len(f) < 4 || f[0] == "DIAGRAM" || f[0] == "TOTAL" {
				continue
			}
			want, ok := counted[f[0]]
			if !ok {
				continue // a prose line, not a diagram row
			}
			rows++
			if f[3] != want {
				t.Errorf("%s: sqlinventory counts %s products, sqlconfig -mode count %s", f[0], f[3], want)
			}
		}
		if rows == 0 || rows != len(counted) {
			t.Errorf("compared %d inventory rows against %d counted diagrams", rows, len(counted))
		}
	})
	t.Run("sqlinventory-diagram", func(t *testing.T) {
		t.Parallel()
		out := runTool(t, "./cmd/sqlinventory", "-diagram", "table_expression")
		for _, want := range []string{"from", "where", "optional"} {
			if !strings.Contains(out, want) {
				t.Errorf("diagram output missing %q", want)
			}
		}
	})
	t.Run("sqlfpc-stats", func(t *testing.T) {
		t.Parallel()
		out := runTool(t, "./cmd/sqlfpc", "-dialect", "tinysql", "-stats")
		if !strings.Contains(out, "productions") || !strings.Contains(out, "keywords") {
			t.Errorf("stats output wrong:\n%s", out)
		}
	})
	t.Run("sqlfpc-grammar", func(t *testing.T) {
		t.Parallel()
		out := runTool(t, "./cmd/sqlfpc", "-dialect", "minimal", "-grammar")
		if !strings.Contains(out, "query_specification") || !strings.Contains(out, "where_clause") {
			t.Errorf("grammar output wrong:\n%s", out)
		}
	})
	t.Run("sqlfpc-check", func(t *testing.T) {
		t.Parallel()
		out := runTool(t, "./cmd/sqlfpc", "-dialect", "minimal", "-check", "SELECT a FROM t")
		if !strings.Contains(out, "ACCEPT") {
			t.Errorf("check output wrong:\n%s", out)
		}
	})
	t.Run("sqlfpc-conflicts", func(t *testing.T) {
		t.Parallel()
		out := runTool(t, "./cmd/sqlfpc", "-dialect", "minimal", "-conflicts")
		if !strings.Contains(out, "backtracking") {
			t.Errorf("conflicts output wrong:\n%s", out)
		}
	})
	t.Run("sqlparse", func(t *testing.T) {
		t.Parallel()
		out := runTool(t, "./cmd/sqlparse", "-dialect", "warehouse",
			"SELECT a FROM t UNION SELECT b FROM u")
		if !strings.Contains(out, "*ast.Select") {
			t.Errorf("sqlparse output wrong:\n%s", out)
		}
	})
	t.Run("sqlfpc-interactive", func(t *testing.T) {
		t.Parallel()
		cmd := exec.Command("go", "run", "./cmd/sqlfpc", "-interactive")
		cmd.Stdin = strings.NewReader(
			"dialect minimal\ncheck SELECT a, b FROM t\nselect multiple_columns\ncheck SELECT a, b FROM t\nquit\n")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("interactive session failed: %v\n%s", err, out)
		}
		text := string(out)
		if !strings.Contains(text, "REJECT") || !strings.Contains(text, "ACCEPT") {
			t.Errorf("interactive output missing verdicts:\n%s", text)
		}
		if strings.Index(text, "REJECT") > strings.Index(text, "ACCEPT (6 tokens)") {
			t.Errorf("selecting multiple_columns did not change the verdict:\n%s", text)
		}
	})
	t.Run("sqldiff", func(t *testing.T) {
		t.Parallel()
		out := runTool(t, "./cmd/sqldiff", "-a", "minimal", "-b", "tinysql",
			"-probe", "SELECT nodeid FROM sensors SAMPLE PERIOD 1024")
		if !strings.Contains(out, "keywords only in B") || !strings.Contains(out, "SAMPLE") {
			t.Errorf("sqldiff output wrong:\n%s", out)
		}
	})
	t.Run("sqlbench-e9", func(t *testing.T) {
		t.Parallel()
		out := runTool(t, "./cmd/sqlbench", "-exp", "E9", "-n", "10")
		if !strings.Contains(out, "extension") || !strings.Contains(out, "true") {
			t.Errorf("sqlbench output wrong:\n%s", out)
		}
	})
	t.Run("sqlbench-bad-exp", func(t *testing.T) {
		t.Parallel()
		cmd := exec.Command("go", "run", "./cmd/sqlbench", "-exp", "E42")
		out, err := cmd.CombinedOutput()
		if err == nil {
			t.Fatalf("unknown experiment accepted:\n%s", out)
		}
		if !strings.Contains(string(out), "E6, E7, E8, E9") {
			t.Errorf("error does not list valid experiments:\n%s", out)
		}
	})
	t.Run("sqlparse-batch", func(t *testing.T) {
		t.Parallel()
		// A batch with a failing statement exits nonzero and reports the
		// error on stderr; the ordered verdicts stay on stdout. Stdin is
		// framed at top-level ';' (a statement may span lines), not by line.
		cmd := exec.Command("go", "run", "./cmd/sqlparse",
			"-dialect", "core", "-batch", "-workers", "4")
		cmd.Stdin = strings.NewReader(
			"SELECT a FROM t;\nSELECT b\nFROM u WHERE c = 1;\nSELECT nope FROM;\n")
		var stdout, stderr strings.Builder
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		if err == nil {
			t.Fatalf("batch with a rejected line exited zero:\n%s", stdout.String())
		}
		if exit, ok := err.(*exec.ExitError); !ok || exit.ExitCode() != 1 {
			t.Fatalf("batch exit = %v, want exit status 1\nstderr: %s", err, stderr.String())
		}
		for _, want := range []string{"1: ACCEPT", "2: ACCEPT", "3: REJECT", "2 accepted, 1 rejected"} {
			if !strings.Contains(stdout.String(), want) {
				t.Errorf("batch stdout missing %q:\n%s", want, stdout.String())
			}
		}
		if !strings.Contains(stderr.String(), "line 4:") {
			t.Errorf("batch stderr missing per-statement error line:\n%s", stderr.String())
		}
	})
	t.Run("sqlparse-batch-all-ok", func(t *testing.T) {
		t.Parallel()
		cmd := exec.Command("go", "run", "./cmd/sqlparse",
			"-dialect", "core", "-batch", "-workers", "2")
		cmd.Stdin = strings.NewReader("SELECT a FROM t;\nSELECT b FROM u;\n")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("clean batch exited nonzero: %v\n%s", err, out)
		}
		if !strings.Contains(string(out), "2 accepted, 0 rejected") {
			t.Errorf("batch output wrong:\n%s", out)
		}
	})
	t.Run("sqlserved-loadgen", func(t *testing.T) {
		t.Parallel()
		out := runTool(t, "./cmd/sqlserved", "-loadgen", "-n", "300",
			"-loadgen-dialects", "minimal,tinysql,core", "-concurrency", "8")
		for _, want := range []string{"zero errors", "telemetry consistent", "TOTAL"} {
			if !strings.Contains(out, want) {
				t.Errorf("loadgen output missing %q:\n%s", want, out)
			}
		}
	})
	t.Run("sqlparse-json", func(t *testing.T) {
		t.Parallel()
		out := runTool(t, "./cmd/sqlparse", "-dialect", "core", "-json",
			"SELECT a FROM t WHERE b = 1")
		for _, want := range []string{`"ok": true`, `"type": "select"`, `"sql": "SELECT a FROM t WHERE b = 1"`} {
			if !strings.Contains(out, want) {
				t.Errorf("json output missing %q:\n%s", want, out)
			}
		}
	})
	t.Run("sqlparse-json-diagnostic", func(t *testing.T) {
		t.Parallel()
		cmd := exec.Command("go", "run", "./cmd/sqlparse", "-dialect", "minimal", "-json",
			"SELECT a, b FROM t")
		out, err := cmd.CombinedOutput()
		if err == nil {
			t.Fatalf("rejected query exited zero:\n%s", out)
		}
		for _, want := range []string{`"ok": false`, `"expected"`, `"line": 1`} {
			if !strings.Contains(string(out), want) {
				t.Errorf("json diagnostic missing %q:\n%s", want, out)
			}
		}
	})
}
