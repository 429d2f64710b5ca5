// Package cache provides the sharded, bounded, single-flight result cache
// that the serving layer hangs hot-path memoization off: statement
// verdicts (internal/product) and configuration completions
// (internal/configure). Keys carry a seeded 64-bit hash of the payload
// instead of the payload itself, so a cached miss/hit costs a fixed-size
// map probe regardless of statement length.
package cache

import (
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// seed keys every Sum in this process. It is random per process and never
// leaves it, so a client cannot compute which payloads share a Sum and
// craft a statement that takes over another statement's entry.
var seed = maphash.MakeSeed()

// Key identifies one cached result. Space partitions hash spaces (a
// catalog fingerprint, a cache name) so identical payloads under
// different dialects never collide; Sum is the seeded hash of the payload
// and Len its length — a cheap extra discriminator that turns a 64-bit
// hash collision into a full-key mismatch unless lengths also agree. The
// payload itself is deliberately NOT part of the key: a multi-megabyte
// statement costs the same fixed-size probe as a short one, and the cache
// never pins request bodies. The residual risk — two same-length, same-
// Space payloads with equal Sums sharing an entry, ~2⁻⁶⁴ per pair since
// the seed is secret — is accepted and documented in DESIGN §13. Keys are
// valid only within the process that made them.
type Key struct {
	Space string
	Sum   uint64
	Len   int
}

// KeyOf builds the Key for payload in the given space.
func KeyOf(space, payload string) Key {
	return Key{Space: space, Sum: maphash.String(seed, payload), Len: len(payload)}
}

// Stats is a point-in-time snapshot of cache counters. Hits+Misses+Shared
// equals the number of Fill calls that completed.
type Stats struct {
	Hits      uint64 // Fill answered from a completed entry
	Misses    uint64 // Fill ran the loader
	Shared    uint64 // waited on another goroutine's in-flight fill
	Evictions uint64 // entries dropped by the per-shard LRU cap
	Entries   int    // current resident entries across all shards
}

type entry struct {
	key        Key
	val        any
	done       chan struct{} // closed when val is usable
	prev, next *entry        // intrusive LRU list; head is most recent
}

type shard struct {
	mu         sync.Mutex
	m          map[Key]*entry
	head, tail *entry
	cap        int
}

// Cache is a sharded (power-of-two shards, per-shard mutex + LRU),
// bounded, single-flight memo table. The hit path — Fill on a completed
// entry — performs zero heap allocations. Values are shared between
// callers and must be treated as immutable.
type Cache struct {
	shards []shard
	mask   uint64

	hits, misses, shared, evictions atomic.Uint64
}

const nShards = 16 // power of two; Key.Sum's low bits pick the shard

// New returns a cache holding at most capacity entries (rounded up to a
// multiple of the shard count; capacity <= 0 means 1 entry per shard).
func New(capacity int) *Cache {
	per := (capacity + nShards - 1) / nShards
	if per < 1 {
		per = 1
	}
	c := &Cache{shards: make([]shard, nShards), mask: nShards - 1}
	for i := range c.shards {
		c.shards[i] = shard{m: make(map[Key]*entry), cap: per}
	}
	return c
}

// Fill resolves k: a completed entry answers at once (counted as a Hit,
// with zero heap allocations), and otherwise fill runs at most once across
// concurrent callers: the first caller inserts an in-flight entry and
// computes; the rest block on it (counted as Shared) and share the result.
// fill's result is cached even when it represents a failure — negative
// caching is the caller's choice of value. If fill panics the entry is
// removed, waiters see a nil value (callers fall back to computing
// uncached), and the panic propagates.
func (c *Cache) Fill(k Key, fill func() any) any {
	sh := &c.shards[k.Sum&c.mask]
	sh.mu.Lock()
	if e, ok := sh.m[k]; ok {
		sh.moveFront(e)
		sh.mu.Unlock()
		select {
		case <-e.done:
			c.hits.Add(1)
		default:
			c.shared.Add(1)
			<-e.done
		}
		return e.val
	}
	e := &entry{key: k, done: make(chan struct{})}
	sh.m[k] = e
	sh.pushFront(e)
	var evicted *entry
	if len(sh.m) > sh.cap {
		evicted = sh.tail
		sh.unlink(evicted)
		delete(sh.m, evicted.key)
	}
	sh.mu.Unlock()
	if evicted != nil {
		c.evictions.Add(1)
	}
	c.misses.Add(1)

	filled := false
	defer func() {
		if !filled {
			// fill panicked: drop the poisoned entry and release waiters.
			sh.mu.Lock()
			if cur, ok := sh.m[k]; ok && cur == e {
				sh.unlink(e)
				delete(sh.m, k)
			}
			sh.mu.Unlock()
			close(e.done)
		}
	}()
	e.val = fill()
	filled = true
	close(e.done)
	return e.val
}

// Stats snapshots the counters. Entries takes every shard lock briefly.
func (c *Cache) Stats() Stats {
	s := Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Shared:    c.shared.Load(),
		Evictions: c.evictions.Load(),
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		s.Entries += len(sh.m)
		sh.mu.Unlock()
	}
	return s
}

// Len returns the resident entry count.
func (c *Cache) Len() int { return c.Stats().Entries }

// ---- intrusive LRU list (callers hold sh.mu) ----

func (sh *shard) pushFront(e *entry) {
	e.prev = nil
	e.next = sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

func (sh *shard) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (sh *shard) moveFront(e *entry) {
	if sh.head == e {
		return
	}
	sh.unlink(e)
	sh.pushFront(e)
}
