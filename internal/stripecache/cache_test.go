package stripecache

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"sync"
	"testing"
)

// TestSingleShardLRUSemantics pins the 1-shard mode to the historical
// single-mutex cache behavior: inserts go to the front, Get refreshes
// recency, and eviction takes the least-recently-used entry.
func TestSingleShardLRUSemantics(t *testing.T) {
	c := New(1, 3)
	if c.Shards() != 1 || c.ShardCap() != 3 {
		t.Fatalf("shards=%d cap=%d, want 1/3", c.Shards(), c.ShardCap())
	}
	for i := 0; i < 3; i++ {
		k := fmt.Sprintf("k%d", i)
		c.Put(k, []byte(k))
	}
	if _, ok := c.Get("k0"); !ok { // touch the oldest
		t.Fatal("k0 missing")
	}
	c.Put("k3", []byte("k3"))
	if !c.Contains("k0") {
		t.Fatal("recently-read k0 was evicted")
	}
	if c.Contains("k1") {
		t.Fatal("k1 should have been the LRU victim")
	}
	if !c.Contains("k2") || !c.Contains("k3") {
		t.Fatal("k2/k3 should survive")
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
}

// TestPutOverwriteRefreshes: overwriting a key updates the value in
// place and protects it from the next eviction.
func TestPutOverwriteRefreshes(t *testing.T) {
	c := New(1, 2)
	c.Put("a", []byte("1"))
	c.Put("b", []byte("2"))
	c.Put("a", []byte("3")) // refresh a; b becomes LRU
	c.Put("c", []byte("4"))
	if c.Contains("b") {
		t.Fatal("b should have been evicted")
	}
	v, ok := c.Get("a")
	if !ok || !bytes.Equal(v, []byte("3")) {
		t.Fatalf("a = %q, %v", v, ok)
	}
}

// TestPerShardEvictionDeterminism: each shard evicts its own LRU tail
// independently of the others. Filling one shard to capacity while
// leaving others sparse must only ever evict from the full shard, in
// exact insertion order.
func TestPerShardEvictionDeterminism(t *testing.T) {
	c := New(4, 8) // 2 entries per shard
	per := c.ShardCap()
	if per != 2 {
		t.Fatalf("per-shard cap = %d, want 2", per)
	}
	// Partition keys by the shard they hash to.
	byShard := make(map[uint64][]string)
	for i := 0; len(byShard[0]) < 5; i++ {
		k := fmt.Sprintf("key-%d", i)
		sh := hash64(k) & c.mask
		byShard[sh] = append(byShard[sh], k)
	}
	victim := byShard[0]
	// One resident key in a different shard must be untouched throughout.
	var other string
	for sh, ks := range byShard {
		if sh != 0 {
			other = ks[0]
			break
		}
	}
	c.Put(other, []byte("other"))
	for _, k := range victim {
		c.Put(k, []byte(k))
	}
	// Shard 0 saw 5 inserts at capacity 2: exactly the last 2 survive.
	for i, k := range victim {
		want := i >= len(victim)-per
		if got := c.Contains(k); got != want {
			t.Fatalf("victim[%d]=%q cached=%v, want %v", i, k, got, want)
		}
	}
	if !c.Contains(other) {
		t.Fatal("eviction in shard 0 leaked into another shard")
	}
}

// TestHash64MatchesFNV pins hash64 to the FNV-1a + splitmix64 pipeline
// the DHT uses, via hard-coded vectors (a silent change would reshuffle
// every key to a different shard AND desynchronize dht ring layouts).
func TestHash64MatchesFNV(t *testing.T) {
	vectors := map[string]uint64{
		"":           0xf52a15e9a9b5e89b,
		"m/1/1/0/1":  0x2f1fa65c4f7536a3,
		"p/7/42/513": 0x865f65e44540f2ff,
	}
	for s, want := range vectors {
		if got := hash64(s); got != want {
			t.Fatalf("hash64(%q) = %#x, want %#x", s, got, want)
		}
		h := fnv.New64a()
		h.Write([]byte(s))
		if got, lib := hash64(s), mix64(h.Sum64()); got != lib {
			t.Fatalf("hash64(%q) = %#x, hash/fnv pipeline = %#x", s, got, lib)
		}
	}
}

// TestConcurrentStress hammers every shard from many goroutines under
// -race: overlapping Put/Get on a shared key space plus per-goroutine
// keys, then checks the cache is internally consistent (bounded size,
// values match their keys).
func TestConcurrentStress(t *testing.T) {
	const (
		workers = 16
		rounds  = 400
		shared  = 64
	)
	c := New(16, 256)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				sk := fmt.Sprintf("shared-%d", (w+i)%shared)
				if v, ok := c.Get(sk); ok && string(v) != sk {
					t.Errorf("Get(%q) = %q", sk, v)
					return
				}
				c.Put(sk, []byte(sk))
				pk := fmt.Sprintf("own-%d-%d", w, i)
				c.Put(pk, []byte(pk))
				if v, ok := c.Get(pk); ok && string(v) != pk {
					t.Errorf("Get(%q) = %q", pk, v)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Len() > c.Shards()*c.ShardCap() {
		t.Fatalf("cache over capacity: %d > %d", c.Len(), c.Shards()*c.ShardCap())
	}
}

// TestCapacityClamp: degenerate capacities still hold one entry per
// shard.
func TestCapacityClamp(t *testing.T) {
	c := New(3, 0) // shards round up to 4
	if c.Shards() != 4 || c.ShardCap() != 1 {
		t.Fatalf("shards=%d cap=%d, want 4/1", c.Shards(), c.ShardCap())
	}
	c.Put("x", []byte("y"))
	if v, ok := c.Get("x"); !ok || string(v) != "y" {
		t.Fatalf("Get(x) = %q, %v", v, ok)
	}
}

// Shards returns the shard (lock stripe) count.
func (c *Cache) Shards() int { return len(c.shards) }

// ShardCap returns the per-shard entry capacity.
func (c *Cache) ShardCap() int { return c.shards[0].cap }

// Len returns the cached entry count across all shards.
func (c *Cache) Len() int {
	total := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		total += len(s.m)
		s.mu.Unlock()
	}
	return total
}
