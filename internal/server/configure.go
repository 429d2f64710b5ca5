// configure.go serves POST /v1/configure: the feature-model configuration
// solver (internal/configure) as a negotiation endpoint. Instead of
// guessing a legal feature selection for /v1/parse — or falling back on
// the six presets — a client completes, explains, counts or samples
// configurations, then parses against the features the solver returned.
// The response shapes here are the one opinion about what a solver result
// looks like: cmd/sqlconfig emits the same JSON via Configure.
package server

import (
	"fmt"
	"net/http"
	"sort"
	"time"

	"sqlspl/internal/configure"
	"sqlspl/internal/dialect"
)

// Configure modes.
const (
	ModeComplete = "complete"
	ModeExplain  = "explain"
	ModeCount    = "count"
	ModeSample   = "sample"
)

// ValidConfigureMode reports whether mode names a configure mode; empty
// defaults to complete.
func ValidConfigureMode(mode string) bool {
	switch mode {
	case "", ModeComplete, ModeExplain, ModeCount, ModeSample:
		return true
	}
	return false
}

// ConfigureRequest is the wire request of POST /v1/configure.
type ConfigureRequest struct {
	// Mode is complete|explain|count|sample; empty means complete.
	Mode string `json:"mode,omitempty"`
	// Dialect seeds Require with a preset's feature selection; unlike
	// /v1/parse it composes with Require/Forbid — that is the negotiation:
	// "the warehouse dialect, but without X" is explain/complete fodder.
	Dialect string `json:"dialect,omitempty"`
	// Require lists features the client wants selected.
	Require []string `json:"require,omitempty"`
	// Forbid lists features the client refuses.
	Forbid []string `json:"forbid,omitempty"`
	// Seed drives sample mode; the (seed, n) prefix is byte-deterministic.
	Seed int64 `json:"seed,omitempty"`
	// N is how many configurations sample mode draws (default 1, cap 64).
	N int `json:"n,omitempty"`
	// DiagramP is sample mode's inclusion probability for diagrams not
	// forced by the required features (default 0.25).
	DiagramP float64 `json:"diagram_p,omitempty"`
	// Diagram restricts count mode to one diagram, enumerating its
	// configurations up to Limit.
	Diagram string `json:"diagram,omitempty"`
	// Limit caps count-mode enumeration (default 16, cap 4096).
	Limit int `json:"limit,omitempty"`
}

// ConflictJSON is the wire shape of a minimal conflict set.
type ConflictJSON struct {
	Decisions   []string `json:"decisions"`
	Constraints []string `json:"constraints,omitempty"`
	Chains      []string `json:"chains,omitempty"`
	Relaxation  string   `json:"relaxation,omitempty"`
}

// DiagramSpaceJSON is one diagram's product count on the wire. Products is
// a decimal string: the SQL:2003 space exceeds uint64 (and float64) by a
// wide margin.
type DiagramSpaceJSON struct {
	Diagram  string `json:"diagram"`
	Features int    `json:"features"`
	Products string `json:"products"`
	Exact    bool   `json:"exact"`
	Note     string `json:"note,omitempty"`
}

// ConfigureResponse is the wire response of POST /v1/configure. Exactly
// the fields for the request's mode are set. It carries no timing field:
// responses are byte-deterministic for a fixed request (and seed), which
// the tests pin; latency lives in the metrics histogram instead.
type ConfigureResponse struct {
	Mode string `json:"mode"`
	OK   bool   `json:"ok"`
	// Complete/explain:
	Features []string      `json:"features,omitempty"` // the full valid config
	Added    []string      `json:"added,omitempty"`    // what the solver added
	Conflict *ConflictJSON `json:"conflict,omitempty"` // when infeasible
	// Count:
	Diagrams   []DiagramSpaceJSON `json:"diagrams,omitempty"`
	Total      string             `json:"total,omitempty"`
	TotalExact bool               `json:"total_exact,omitempty"`
	Configs    [][]string         `json:"configs,omitempty"` // enumeration / samples
	Complete   bool               `json:"complete,omitempty"`
	// Sample:
	Seed int64 `json:"seed,omitempty"`
}

// EncodeConflict converts a solver conflict to its wire shape.
func EncodeConflict(c *configure.Conflict) *ConflictJSON {
	if c == nil {
		return nil
	}
	return &ConflictJSON{
		Decisions:   c.Decisions,
		Constraints: c.Constraints,
		Chains:      c.Chains,
		Relaxation:  c.Relaxation,
	}
}

// Configure answers a configure request against a solver: the single
// encode path shared by the /v1/configure handler and cmd/sqlconfig. It
// returns the response plus the HTTP status a server should answer with
// (400 for malformed requests, 200 otherwise — an infeasible selection is
// a successful negotiation answer, not an error).
func Configure(sol *configure.Solver, req *ConfigureRequest) (*ConfigureResponse, int, error) {
	if !ValidConfigureMode(req.Mode) {
		return nil, http.StatusBadRequest, fmt.Errorf("unknown mode %q (complete|explain|count|sample)", req.Mode)
	}
	mode := req.Mode
	if mode == "" {
		mode = ModeComplete
	}
	require := append([]string(nil), req.Require...)
	if req.Dialect != "" {
		feats, err := dialect.Features(dialect.Name(req.Dialect))
		if err != nil {
			return nil, http.StatusBadRequest, err
		}
		require = append(feats, require...)
	}
	resp := &ConfigureResponse{Mode: mode}
	switch mode {
	case ModeComplete, ModeExplain:
		// CachedComplete memoizes per normalized (require, forbid) pair, so
		// repeated negotiations — preset tweaks dominate real traffic — skip
		// the solver. Results are shared and read-only here: only Names()
		// copies and JSON encoding touch them.
		comp, conflict, err := sol.CachedComplete(configure.Request{Require: require, Forbid: req.Forbid})
		if err != nil {
			return nil, http.StatusBadRequest, err
		}
		if conflict != nil {
			resp.Conflict = EncodeConflict(conflict)
			return resp, http.StatusOK, nil
		}
		resp.OK = true
		// Explain answers feasibility; completion details ride along only
		// in complete mode.
		if mode == ModeComplete {
			resp.Features = comp.Config.Names()
			resp.Added = comp.Added
		}
		return resp, http.StatusOK, nil

	case ModeCount:
		if req.Diagram != "" {
			limit := req.Limit
			if limit <= 0 {
				limit = 16
			}
			if limit > 4096 {
				limit = 4096
			}
			configs, complete, err := sol.Enumerate(req.Diagram, limit)
			if err != nil {
				return nil, http.StatusBadRequest, err
			}
			resp.OK = true
			resp.Configs = configs
			resp.Complete = complete
		}
		for _, ds := range sol.Space() {
			if req.Diagram != "" && ds.Diagram != req.Diagram {
				continue
			}
			resp.Diagrams = append(resp.Diagrams, DiagramSpaceJSON{
				Diagram:  ds.Diagram,
				Features: ds.Features,
				Products: ds.Products.String(),
				Exact:    ds.Exact,
				Note:     ds.Note,
			})
		}
		if req.Diagram == "" {
			total, exact := sol.Total()
			resp.Total = total.String()
			resp.TotalExact = exact
		}
		resp.OK = true
		return resp, http.StatusOK, nil

	case ModeSample:
		n := req.N
		if n <= 0 {
			n = 1
		}
		if n > 64 {
			n = 64
		}
		p := req.DiagramP
		if p == 0 {
			p = 0.25
		}
		sort.Strings(require)
		sa, err := sol.NewSampler(req.Seed, p, require...)
		if err != nil {
			return nil, http.StatusBadRequest, err
		}
		for i := 0; i < n; i++ {
			cfg, err := sa.Next()
			if err != nil {
				return nil, http.StatusBadRequest, fmt.Errorf("draw %d: %v", i, err)
			}
			resp.Configs = append(resp.Configs, cfg.Names())
		}
		resp.OK = true
		resp.Seed = req.Seed
		return resp, http.StatusOK, nil
	}
	return nil, http.StatusBadRequest, fmt.Errorf("unreachable mode %q", mode)
}

// handleConfigure serves POST /v1/configure. It decodes like the parse
// endpoints but keeps its own admission: it resolves no dialect, so the
// shared request front does not apply.
func (s *Server) handleConfigure(w http.ResponseWriter, r *http.Request) {
	var req ConfigureRequest
	if !s.decode(w, r, &req) {
		return
	}
	if !s.admit() {
		s.reject429(w)
		return
	}
	defer s.release()
	s.m.configureReqs.Inc()

	start := time.Now()
	resp, status, err := Configure(s.solver, &req)
	s.m.configureLatency.Observe(time.Since(start).Seconds())
	if err != nil {
		s.m.badRequests.Inc()
		writeJSON(w, status, errorBody{Error: err.Error()})
		return
	}
	if resp.Conflict != nil {
		s.m.configureConflicts.Inc()
	}
	writeJSON(w, status, resp)
}
