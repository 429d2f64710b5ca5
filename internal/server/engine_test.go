package server

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"sqlspl/internal/dialect"
	"sqlspl/internal/engine"
)

// TestServesPresetsThroughGeneratedEngines pins the acceptance criterion
// for the engine seam: /v1/parse and /v1/batch requests for preset
// dialects are served by the pregenerated parsers — observable as catalog
// promotions in /metrics and generated-engine call counters moving. The
// engine call counters are process-wide, so the test asserts deltas.
func TestServesPresetsThroughGeneratedEngines(t *testing.T) {
	s := freshServer(t, Config{})
	addr := startServer(t, s)
	client := &http.Client{}
	defer client.CloseIdleConnections()

	before := engine.HotCounters()

	// Verdict rides the generated Check path; render rides generated Parse.
	if status, body, _ := postJSON(t, client, "http://"+addr+"/v1/parse",
		ParseRequest{Dialect: "minimal", SQL: "SELECT a FROM t", Want: WantVerdict}); status != http.StatusOK {
		t.Fatalf("verdict parse = %d: %s", status, body)
	}
	if status, body, _ := postJSON(t, client, "http://"+addr+"/v1/parse",
		ParseRequest{Dialect: "core", SQL: "SELECT a, b FROM t WHERE c = 1"}); status != http.StatusOK {
		t.Fatalf("render parse = %d: %s", status, body)
	}
	status, body, _ := postJSON(t, client, "http://"+addr+"/v1/batch",
		BatchRequest{Dialect: "tinysql", Queries: []string{
			"SELECT nodeid FROM sensors SAMPLE PERIOD 1024",
			"SELECT nodeid AS n FROM sensors", // out of dialect
		}})
	if status != http.StatusOK {
		t.Fatalf("batch = %d: %s", status, body)
	}
	var batch BatchResponse
	if err := json.Unmarshal(body, &batch); err != nil {
		t.Fatal(err)
	}
	if batch.Accepted != 1 || batch.Rejected != 1 {
		t.Errorf("batch verdicts = %d/%d accepted/rejected, want 1/1", batch.Accepted, batch.Rejected)
	}

	after := engine.HotCounters()
	if after.GenChecks <= before.GenChecks {
		t.Error("generated Check counter did not move — verdict traffic not on the generated engine")
	}
	if after.GenParses <= before.GenParses {
		t.Error("generated Parse counter did not move — render traffic not on the generated engine")
	}

	// The server's private catalog promoted one build per preset touched.
	if promos := s.Catalog().Stats().Promotions; promos != 3 {
		t.Errorf("catalog promotions = %d, want 3 (minimal, core, tinysql)", promos)
	}

	// The promotion counter is on the wire at /metrics.
	resp, err := client.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := readAll(resp)
	if !strings.Contains(text, "sqlspl_catalog_promotions_total 3") {
		t.Errorf("/metrics missing promotion counter, got:\n%s", grepLines(text, "promotions"))
	}
	for _, name := range []string{
		"sqlspl_engine_generated_parses_total",
		"sqlspl_engine_generated_checks_total",
		"sqlspl_engine_diagnose_fallbacks_total",
		"sqlspl_engine_stale_skips_total",
	} {
		if !strings.Contains(text, name) {
			t.Errorf("/metrics missing %s", name)
		}
	}

	// /v1/dialects reports the serving backend for built presets, and
	// listing resolves nothing: the catalog counters stay put.
	stats := s.Catalog().Stats()
	resp, err = client.Get("http://" + addr + "/v1/dialects")
	if err != nil {
		t.Fatal(err)
	}
	listing, _ := readAll(resp)
	if after := s.Catalog().Stats(); after != stats {
		t.Errorf("GET /v1/dialects moved the catalog stats: %+v -> %+v", stats, after)
	}
	var infos []DialectInfo
	if err := json.Unmarshal([]byte(listing), &infos); err != nil {
		t.Fatal(err)
	}
	byName := map[string]DialectInfo{}
	for _, info := range infos {
		byName[info.Name] = info
	}
	for _, name := range []string{"minimal", "core", "tinysql"} {
		info := byName[name]
		if !info.Built || info.Engine != string(engine.KindGenerated) {
			t.Errorf("dialect %s: built=%v engine=%q, want built with generated engine", name, info.Built, info.Engine)
		}
	}

	// An explicit feature selection has no pregenerated parser: it serves
	// interpreted and does not bump the promotion counter.
	if status, body, _ := postJSON(t, client, "http://"+addr+"/v1/parse",
		ParseRequest{Features: mustConfig(t, dialect.Minimal).Names(), SQL: "SELECT a FROM t"}); status != http.StatusOK {
		t.Fatalf("custom-features parse = %d: %s", status, body)
	}
	if promos := s.Catalog().Stats().Promotions; promos != 3 {
		t.Errorf("custom selection changed promotions to %d", promos)
	}
}

func readAll(resp *http.Response) (string, error) {
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}

// grepLines returns the lines of text containing substr, for focused
// failure output.
func grepLines(text, substr string) string {
	var out []string
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}
