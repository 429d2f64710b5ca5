package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sqlspl/internal/dialect"
	"sqlspl/internal/product"
	"sqlspl/internal/sql2003"
)

// batchScaleQueries cuts streamScaleScript at its ';'s into n batch
// queries: accepted queries, syntax errors, lexical errors and exact
// repeats.
func batchScaleQueries(n int) []string { return strings.Split(streamScaleScript(n), ";") }

// TestBatchWorkerCountInvariance pins the batch pool at scale, on a preset
// and on an explicit feature list: the body is byte-identical for any
// worker count apart from elapsed_us, every result is what Outcome
// answers for its query alone, every query counts exactly one
// verdict-cache lookup, and no goroutine outlives the batches.
func TestBatchWorkerCountInvariance(t *testing.T) {
	baseline := runtime.NumGoroutine()
	queries := batchScaleQueries(1000)
	feats, err := dialect.Features(dialect.Core)
	if err != nil {
		t.Fatal(err)
	}
	cat := product.NewCatalog(sql2003.MustModel(), sql2003.Registry{})
	for _, sel := range []struct {
		name string
		req  BatchRequest
	}{
		{"preset", BatchRequest{Dialect: "core", Queries: queries}},
		{"features", BatchRequest{Features: feats, Queries: queries}},
	} {
		var first []byte
		for _, workers := range []int{1, 2, 8} {
			s := freshServer(t, Config{Catalog: cat, BatchWorkers: workers})
			addr := startServer(t, s)
			client := &http.Client{}
			status, body, _ := postJSON(t, client, "http://"+addr+"/v1/batch", sel.req)
			if status != http.StatusOK {
				t.Fatalf("%s, workers=%d: status %d: %s", sel.name, workers, status, body)
			}
			if st := s.vcache.Stats(); st.Hits+st.Misses+st.Shared != uint64(len(queries)) {
				t.Errorf("%s, workers=%d: verdict cache %+v counts %d lookups, want one per query (%d)",
					sel.name, workers, st, st.Hits+st.Misses+st.Shared, len(queries))
			}
			if got := s.m.batchQueries.Value(); got != uint64(len(queries)) {
				t.Errorf("%s, workers=%d: batch queries counter = %d, want %d", sel.name, workers, got, len(queries))
			}
			if stripped := elapsedField.ReplaceAll(body, nil); first != nil {
				if !bytes.Equal(stripped, first) {
					t.Fatalf("%s, workers=%d: body differs from workers=1", sel.name, workers)
				}
			} else {
				// The workers=1 body is the reference the others must equal
				// byte for byte, so Outcome is compared against it alone.
				first = stripped
				_, eng, _, err := s.resolve(sel.req.Dialect, sel.req.Features)
				if err != nil {
					t.Fatal(err)
				}
				var resp BatchResponse
				if err := json.Unmarshal(body, &resp); err != nil {
					t.Fatal(err)
				}
				if len(resp.Results) != len(queries) {
					t.Fatalf("%s: %d results for %d queries", sel.name, len(resp.Results), len(queries))
				}
				accepted := 0
				for i, q := range queries {
					want := Outcome(eng, q, WantVerdict)
					if want.OK {
						accepted++
					}
					wantJSON, _ := json.Marshal(BatchResult{OK: want.OK, Error: want.Error, Diagnostics: want.Diagnostics})
					gotJSON, _ := json.Marshal(resp.Results[i])
					if !bytes.Equal(gotJSON, wantJSON) {
						t.Fatalf("%s: result %d for %q = %s, want %s", sel.name, i, q, gotJSON, wantJSON)
					}
				}
				if resp.Accepted != accepted || resp.Rejected != len(queries)-accepted || accepted == 0 || accepted == len(queries) {
					t.Fatalf("%s: %d accepted, %d rejected; Outcome accepts %d of %d", sel.name, resp.Accepted, resp.Rejected, accepted, len(queries))
				}
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			if err := s.Shutdown(ctx); err != nil {
				t.Fatal(err)
			}
			cancel()
			client.CloseIdleConnections()
		}
	}
	checkNoGoroutineLeak(t, baseline)
}

// TestBatchStopsClaimingWhenCancelled: workers check the request context
// before every claim. An already-cancelled batch checks no query; one
// cancelled while its k-th query is checked lets each other worker finish
// at most the one query it had claimed.
func TestBatchStopsClaimingWhenCancelled(t *testing.T) {
	queries := batchScaleQueries(200)
	cat := product.NewCatalog(sql2003.MustModel(), sql2003.Registry{})
	lookups := func(s *Server) uint64 {
		st := s.vcache.Stats()
		return st.Hits + st.Misses + st.Shared
	}

	t.Run("already-cancelled", func(t *testing.T) {
		s := freshServer(t, Config{Catalog: cat, BatchWorkers: 4})
		_, eng, _, err := s.resolve("core", nil)
		if err != nil {
			t.Fatal(err)
		}
		s.testHookCheck = func(string) { t.Error("a cancelled batch checked a query") }
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		s.runBatch(ctx, eng, &BatchRequest{Queries: queries})
		if n := lookups(s); n != 0 {
			t.Errorf("cancelled batch made %d verdict-cache lookups, want 0", n)
		}
	})

	const k = 10
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			s := freshServer(t, Config{Catalog: cat, BatchWorkers: workers})
			_, eng, _, err := s.resolve("core", nil)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var checked atomic.Int64
			s.testHookCheck = func(string) {
				if checked.Add(1) == k {
					cancel()
				}
			}
			s.runBatch(ctx, eng, &BatchRequest{Queries: queries})
			if n := lookups(s); n < k || n > uint64(k+workers-1) {
				t.Errorf("batch cancelled at query %d made %d lookups, want %d..%d", k, n, k, k+workers-1)
			}
		})
	}
}

// TestBatchEndpointPanicContained: batch workers run outside the recovery
// middleware, and with one worker the request goroutine is the worker. A
// panic while checking one query answers only that result with an
// internal-error diagnostic, the batch still answers 200, and the panic
// is counted once.
func TestBatchEndpointPanicContained(t *testing.T) {
	const n, bad = 50, 17
	queries := make([]string, n)
	for i := range queries {
		queries[i] = fmt.Sprintf("SELECT c%d FROM t", i)
	}
	queries[bad] = "SELECT boom FROM t"
	for _, workers := range []int{1, 2} {
		s := freshServer(t, Config{BatchWorkers: workers})
		s.testHookCheck = func(text string) {
			if strings.Contains(text, "boom") {
				panic("injected query panic")
			}
		}
		addr := startServer(t, s)
		client := &http.Client{}
		status, body, _ := postJSON(t, client, "http://"+addr+"/v1/batch", BatchRequest{Dialect: "core", Queries: queries})
		if status != http.StatusOK {
			t.Fatalf("workers=%d: status %d: %s", workers, status, body)
		}
		var resp BatchResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Results) != n || resp.Accepted != n-1 || resp.Rejected != 1 {
			t.Fatalf("workers=%d: %d results, %d accepted, %d rejected; want %d, one rejected",
				workers, len(resp.Results), resp.Accepted, resp.Rejected, n)
		}
		for i, r := range resp.Results {
			if i == bad {
				if r.OK || r.Error == nil || !strings.Contains(r.Error.Message, "internal error") {
					t.Errorf("workers=%d: panicked query's result = %+v, want an internal-error diagnostic", workers, r)
				}
			} else if !r.OK {
				t.Errorf("workers=%d: result %d rejected: %+v", workers, i, r.Error)
			}
		}
		mResp, err := client.Get("http://" + addr + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		metrics, err := io.ReadAll(mResp.Body)
		mResp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{
			"sqlserved_parse_panics_total 1\n",
			fmt.Sprintf("sqlserved_batch_queries_total %d\n", n),
		} {
			if !strings.Contains(string(metrics), want) {
				t.Errorf("workers=%d: metrics lack %q", workers, strings.TrimSpace(want))
			}
		}
		client.CloseIdleConnections()
	}
}
