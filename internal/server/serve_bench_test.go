package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"sqlspl/internal/product"
	"sqlspl/internal/sql2003"
	"sqlspl/internal/workload"
)

// BenchmarkServeParse times sequential core /v1/parse requests through
// Handler().ServeHTTP and a recorder: the request front, the work and
// the encoding, without a network. Each case cycles 512 distinct OLTP
// statements. After the untimed first pass, verdict requests are
// verdict-cache hits, like perfbench's interactive hot set, while ast
// and analysis requests parse on every request. Besides the mean
// (ns/op) it reports the median request (p50-ns/op).
//
//	go test -run '^$' -bench BenchmarkServeParse -benchtime 5000x ./internal/server
func BenchmarkServeParse(b *testing.B) {
	const distinct = 512
	var queries []string
	seen := map[string]bool{}
	for _, q := range workload.OLTP(20, 4*distinct) {
		if !seen[q] && len(queries) < distinct {
			seen[q] = true
			queries = append(queries, q)
		}
	}
	if len(queries) < distinct {
		b.Fatalf("only %d distinct statements", len(queries))
	}
	h := New(Config{Catalog: product.NewCatalog(sql2003.MustModel(), sql2003.Registry{})}).Handler()
	serve := func(b *testing.B, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/parse", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	for _, want := range []string{WantVerdict, WantAST, WantAnalysis} {
		bodies := make([][]byte, len(queries))
		for i, q := range queries {
			body, err := json.Marshal(ParseRequest{Dialect: "core", SQL: q, Want: want})
			if err != nil {
				b.Fatal(err)
			}
			bodies[i] = body
		}
		b.Run(want, func(b *testing.B) {
			for _, body := range bodies { // builds core, fills the verdict cache
				serve(b, body)
			}
			took := make([]time.Duration, b.N)
			b.ResetTimer()
			for i := range took {
				start := time.Now()
				serve(b, bodies[i%len(bodies)])
				took[i] = time.Since(start)
			}
			b.StopTimer()
			// ns/op is a mean, which a burst of host noise or one long GC
			// cycle moves; the median request is the steadier figure.
			slices.Sort(took)
			b.ReportMetric(float64(took[len(took)/2].Nanoseconds()), "p50-ns/op")
		})
	}
}
