package cache

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestKeyOf(t *testing.T) {
	a := KeyOf("fp1", "SELECT 1")
	b := KeyOf("fp2", "SELECT 1")
	if a == b {
		t.Fatal("same payload in different spaces must not share a key")
	}
	if a != KeyOf("fp1", "SELECT 1") {
		t.Fatal("KeyOf not deterministic")
	}
	if a.Len != len("SELECT 1") {
		t.Fatalf("Len = %d", a.Len)
	}
	// Same length and the same unseeded 64-bit xxHash: a client that could
	// predict Sum could poison one statement's verdict with the other's.
	if KeyOf("fp1", "SELECTc$g+z7E>oX") == KeyOf("fp1", "SELECT a FROM tt") {
		t.Fatal("the xxHash collision pair shares a key")
	}
}

func TestFillAndGet(t *testing.T) {
	c := New(64)
	k := KeyOf("s", "payload")
	calls := 0
	v := c.Fill(k, func() any { calls++; return 42 })
	if v != 42 || calls != 1 {
		t.Fatalf("Fill = %v (calls %d)", v, calls)
	}
	// Second Fill is a hit: the loader must not run again.
	v = c.Fill(k, func() any { calls++; return 43 })
	if v != 42 || calls != 1 {
		t.Fatalf("second Fill = %v (calls %d), want cached 42", v, calls)
	}
	if v := c.Fill(k, func() any { calls++; return 44 }); v != 42 || calls != 1 {
		t.Fatalf("third Fill = %v (calls %d), want cached 42", v, calls)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 2 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// An absent key is no hit: its loader runs.
	absent := true
	c.Fill(KeyOf("s", "other"), func() any { absent = false; return 0 })
	if absent {
		t.Fatal("Fill of an absent key answered without running its loader")
	}
}

// Concurrent fills of one key coalesce onto a single loader run.
func TestSingleFlight(t *testing.T) {
	c := New(64)
	k := KeyOf("s", "hot statement")
	var calls atomic.Int32
	gate := make(chan struct{})
	var wg sync.WaitGroup
	results := make([]any, 32)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-gate
			results[i] = c.Fill(k, func() any {
				calls.Add(1)
				return "verdict"
			})
		}(i)
	}
	close(gate)
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Fatalf("loader ran %d times, want 1", got)
	}
	for i, r := range results {
		if r != "verdict" {
			t.Fatalf("result %d = %v", i, r)
		}
	}
	st := c.Stats()
	if st.Misses != 1 {
		t.Fatalf("misses = %d, want 1", st.Misses)
	}
	if st.Hits+st.Shared != 31 {
		t.Fatalf("hits+shared = %d, want 31 (stats %+v)", st.Hits+st.Shared, st)
	}
}

// The per-shard LRU cap holds: inserting far more keys than capacity
// evicts the least recently used, and a touched entry survives.
func TestLRUEviction(t *testing.T) {
	c := New(nShards) // one entry per shard
	first := KeyOf("s", "keep-me")
	c.Fill(first, func() any { return 0 })
	evictions := uint64(0)
	for i := 0; i < 4*nShards; i++ {
		c.Fill(KeyOf("s", fmt.Sprintf("filler-%d", i)), func() any { return i })
	}
	st := c.Stats()
	if st.Entries > nShards {
		t.Fatalf("entries = %d exceeds capacity %d", st.Entries, nShards)
	}
	if st.Evictions == evictions {
		t.Fatal("no evictions recorded despite overflow")
	}
	// LRU order within a shard: fill two keys landing in one shard with
	// cap 1 — the older must go.
	c2 := New(nShards)
	a, b := KeyOf("s", "a"), KeyOf("s", "b")
	// Force same shard by aligning the low bits of the sum.
	b.Sum = (b.Sum &^ uint64(nShards-1)) | (a.Sum & uint64(nShards-1))
	c2.Fill(a, func() any { return "a" })
	c2.Fill(b, func() any { return "b" })
	if v := c2.Fill(b, func() any { return "b again" }); v != "b" {
		t.Fatal("newest entry was evicted")
	}
	if v := c2.Fill(a, func() any { return "a again" }); v != "a again" {
		t.Fatal("LRU kept the older entry over the newer one")
	}
}

// Peek reads completed entries only, moves no counter and leaves the LRU
// order alone: a peeked tail entry is still the next one evicted.
func TestPeek(t *testing.T) {
	c := New(2 * nShards) // two entries per shard
	a, b, d := KeyOf("s", "a"), KeyOf("s", "b"), KeyOf("s", "d")
	for _, k := range []*Key{&b, &d} { // force one shard
		k.Sum = (k.Sum &^ uint64(nShards-1)) | (a.Sum & uint64(nShards-1))
	}
	if _, ok := c.Peek(a); ok {
		t.Fatal("Peek found an absent key")
	}
	c.Fill(a, func() any { return "a" })
	c.Fill(b, func() any { return "b" })
	before := c.Stats()
	if v, ok := c.Peek(a); !ok || v != "a" {
		t.Fatalf("Peek(a) = %v, %v; want a, true", v, ok)
	}
	if after := c.Stats(); after != before {
		t.Fatalf("Peek moved the counters: %+v -> %+v", before, after)
	}
	c.Fill(d, func() any { return "d" })
	if _, ok := c.Peek(a); ok {
		t.Fatal("the peeked tail entry survived the next eviction")
	}
	if v, ok := c.Peek(b); !ok || v != "b" {
		t.Fatalf("Peek(b) = %v, %v; want b, true", v, ok)
	}

	inflight := KeyOf("s", "in flight")
	entered, release := make(chan struct{}), make(chan struct{})
	filled := make(chan struct{})
	go func() {
		defer close(filled)
		c.Fill(inflight, func() any { close(entered); <-release; return "done" })
	}()
	<-entered
	if _, ok := c.Peek(inflight); ok {
		t.Error("Peek reported a fill still in flight")
	}
	close(release)
	<-filled
	if v, ok := c.Peek(inflight); !ok || v != "done" {
		t.Errorf("Peek after the fill = %v, %v; want done, true", v, ok)
	}
}

// A panicking loader must not poison the key: the entry is removed,
// waiters observe nil, and a later Fill runs fresh.
func TestFillPanic(t *testing.T) {
	c := New(64)
	k := KeyOf("s", "boom")
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not propagate")
			}
		}()
		c.Fill(k, func() any { panic("loader failure") })
	}()
	if n := c.Len(); n != 0 {
		t.Fatalf("poisoned entry still resident (%d entries)", n)
	}
	if v := c.Fill(k, func() any { return "ok" }); v != "ok" {
		t.Fatalf("Fill after panic = %v", v)
	}
}

// The acceptance criterion behind E12: a Fill that hits a warmed entry
// performs zero heap allocations.
func TestGetZeroAlloc(t *testing.T) {
	c := New(1024)
	keys := make([]Key, 64)
	for i := range keys {
		keys[i] = KeyOf("fingerprint", fmt.Sprintf("SELECT c%d FROM t WHERE id = %d", i, i))
		c.Fill(keys[i], func() any { return i })
	}
	miss := func() any { t.Fatal("warmed key missed"); return nil }
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		k := keys[i&63]
		i++
		c.Fill(k, miss)
	})
	if allocs != 0 {
		t.Fatalf("a Fill hit allocates %v per op, want 0", allocs)
	}
}

func TestConcurrentMixedUse(t *testing.T) {
	c := New(128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := KeyOf("s", fmt.Sprintf("q-%d", (g*31+i)%200))
				c.Fill(k, func() any { return i })
			}
		}(g)
	}
	wg.Wait()
	if st := c.Stats(); st.Entries > 128+nShards {
		t.Fatalf("entries = %d over cap", st.Entries)
	}
}
