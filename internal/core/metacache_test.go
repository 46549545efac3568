package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dht"
)

// newTestMetaCache builds a single-shard cache: with one lock stripe
// the stripecache-backed cachedMeta must reproduce the historical
// single-mutex LRU semantics exactly, which is what the tests below
// pin (1-shard equivalence).
func newTestMetaCache(t *testing.T, capacity int) *cachedMeta {
	t.Helper()
	env := cluster.NewLocal(2, 2)
	cl := dht.NewCluster([]cluster.NodeID{1}, 4, 1).NewClient(env, 0)
	return newCachedMeta(cl, 1, capacity)
}

func cached(c *cachedMeta, key string) bool {
	return c.cache.Contains(key)
}

// TestMetaCacheTrimKeepsJustInserted: a node inserted by the current
// batch (e.g. a hot tree root) must survive the trim; eviction takes
// the least-recently-used entries from earlier batches instead.
func TestMetaCacheTrimKeepsJustInserted(t *testing.T) {
	c := newTestMetaCache(t, 4)
	for i := 0; i < 4; i++ {
		k := fmt.Sprintf("filler-%d", i)
		if err := c.batchPut(map[string][]byte{k: []byte(k)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.batchPut(map[string][]byte{"root": []byte("hot")}); err != nil {
		t.Fatal(err)
	}
	if !cached(c, "root") {
		t.Fatal("just-inserted root was evicted by the trim")
	}
	if cached(c, "filler-0") {
		t.Fatal("trim kept the least-recently-used entry over newer ones")
	}
	for i := 1; i < 4; i++ {
		if !cached(c, fmt.Sprintf("filler-%d", i)) {
			t.Fatalf("trim evicted filler-%d; only the LRU entry should go", i)
		}
	}
}

// TestMetaCacheGetRefreshesRecency: a BatchGet hit protects an entry
// from the next eviction.
func TestMetaCacheGetRefreshesRecency(t *testing.T) {
	c := newTestMetaCache(t, 3)
	for i := 0; i < 3; i++ {
		k := fmt.Sprintf("k%d", i)
		if err := c.batchPut(map[string][]byte{k: []byte(k)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.BatchGet([]string{"k0"}); err != nil { // touch the oldest
		t.Fatal(err)
	}
	if err := c.batchPut(map[string][]byte{"k3": []byte("k3")}); err != nil {
		t.Fatal(err)
	}
	if !cached(c, "k0") {
		t.Fatal("recently-read k0 was evicted")
	}
	if cached(c, "k1") {
		t.Fatal("k1 should have been the LRU victim")
	}

	// The evicted entry is still in the DHT and refetches correctly.
	got, err := c.BatchGet([]string{"k1"})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got["k1"], []byte("k1")) {
		t.Fatalf("refetched k1 = %q", got["k1"])
	}
}

// TestMetaCacheConcurrentStress drives concurrent BatchGet/BatchPut
// through a sharded cachedMeta under -race: writers publish batches of
// immutable nodes, readers fetch overlapping key sets (hits, misses
// and DHT refetches all race across shards). The CI race leg runs this
// alongside the consistency harness.
func TestMetaCacheConcurrentStress(t *testing.T) {
	env := cluster.NewLocal(2, 2)
	cl := dht.NewCluster([]cluster.NodeID{1}, 4, 1).NewClient(env, 0)
	c := newCachedMeta(cl, 16, 64) // small: force eviction races

	const workers = 8
	const rounds = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				kvs := make(map[string][]byte, 4)
				keys := make([]string, 0, 8)
				for i := 0; i < 4; i++ {
					// Metadata nodes are immutable: every writer stores the
					// same value under a given key, as the contract requires.
					k := fmt.Sprintf("m/1/%d/%d/1", (w+r)%workers, i)
					kvs[k] = []byte(k)
					keys = append(keys, k, fmt.Sprintf("m/1/%d/%d/1", (w+r+1)%workers, i))
				}
				if err := c.batchPut(kvs); err != nil {
					t.Error(err)
					return
				}
				got, err := c.BatchGet(keys)
				if err != nil {
					t.Error(err)
					return
				}
				for k, v := range got {
					if string(v) != k {
						t.Errorf("BatchGet[%q] = %q", k, v)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
