// vcache.go is the hot-statement verdict cache: a sharded, bounded,
// single-flight memo (internal/cache) over per-statement Check outcomes,
// keyed on (engine fingerprint, seeded hash of the statement bytes). The
// serving layer consults it before dispatching to an engine, so repeated
// statements — the dominant shape of parse-service traffic — cost a map
// probe instead of a parse. All clients share it; the per-process seed
// keeps any of them from crafting a statement that answers for another.
// Coherence is free: the fingerprint names the exact composed grammar, so
// a cache entry can never be served to a dialect it was not computed
// under, and entries need no invalidation — a product is immutable for
// the life of its fingerprint.
package product

import (
	"sqlspl/internal/cache"
	"sqlspl/internal/engine"
	"sqlspl/internal/parser"
)

// DefaultVerdictCacheCapacity bounds a VerdictCache constructed with a
// non-positive capacity: 16k verdicts across all dialects (~a few MB of
// diagnostics worst-case, far under one catalog product).
const DefaultVerdictCacheCapacity = 1 << 14

// Verdict is one cached Check outcome. Shared between callers: treat as
// immutable.
type Verdict struct {
	// Err is the engine's Check result (nil = statement accepted).
	Err error
	// Diags is the canonical recovery view of a rejected statement
	// (engine.Diagnose over the statement text, positions relative to it);
	// nil when accepted.
	Diags []parser.Diagnostic
}

// OK reports acceptance.
func (v *Verdict) OK() bool { return v.Err == nil }

// VerdictCache memoizes per-statement verdicts across engines.
type VerdictCache struct {
	c *cache.Cache
}

// NewVerdictCache returns a cache bounded to capacity verdicts
// (DefaultVerdictCacheCapacity when capacity <= 0).
func NewVerdictCache(capacity int) *VerdictCache {
	if capacity <= 0 {
		capacity = DefaultVerdictCacheCapacity
	}
	return &VerdictCache{c: cache.New(capacity)}
}

// Verdict returns the cached verdict for sql under eng's fingerprint,
// computing (Check, plus Diagnose when rejected) once per distinct
// statement with concurrent misses coalesced. The hit path performs zero
// heap allocations.
func (vc *VerdictCache) Verdict(eng engine.Engine, sql string) *Verdict {
	v := vc.c.Fill(cache.KeyOf(eng.Info().Fingerprint, sql), func() any { return computeVerdict(eng, sql) })
	if v == nil {
		// A concurrent filler panicked; compute uncached rather than
		// re-entering the cache.
		return computeVerdict(eng, sql)
	}
	return v.(*Verdict)
}

// Stats snapshots the underlying cache counters.
func (vc *VerdictCache) Stats() cache.Stats { return vc.c.Stats() }

func computeVerdict(eng engine.Engine, sql string) *Verdict {
	v := &Verdict{}
	if err := eng.Check(sql); err != nil {
		v.Err = err
		v.Diags = eng.Diagnose(sql)
	}
	return v
}
