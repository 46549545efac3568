package core

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dht"
)

// newTestMetaCache builds a single-shard cache: with one lock stripe
// cachedMeta is one LRU over the whole capacity, exact global order,
// which the tests below pin.
func newTestMetaCache(t *testing.T, capacity int) *cachedMeta {
	t.Helper()
	env := cluster.NewLocal(2, 2)
	cl := dht.NewCluster([]cluster.NodeID{1}, 4, 1).NewClient(env, 0)
	return newCachedMeta(cl, 1, capacity)
}

// cached reports whether k is cached without touching recency.
func cached(c *cachedMeta, k nodeKey) bool {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	_, i := s.find(k)
	return i >= 0
}

// testLeaf is the leaf of page 0 of version v of blob 1, and the node
// stored under it: its one replica is node v.
func testLeaf(v Version) keyedNode {
	return keyedNode{key: nodeKey{blob: 1, version: v, pages: pageRange{count: 1}}, node: treeNode{providers: []cluster.NodeID{cluster.NodeID(v)}}}
}

// TestMetaCacheTrimKeepsJustInserted: a node inserted by the current
// batch (e.g. a hot tree root) must survive the trim; eviction takes
// the least-recently-used entries from earlier batches instead.
func TestMetaCacheTrimKeepsJustInserted(t *testing.T) {
	c := newTestMetaCache(t, 4)
	for v := Version(1); v <= 4; v++ {
		if err := c.put([]keyedNode{testLeaf(v)}); err != nil {
			t.Fatal(err)
		}
	}
	root := keyedNode{key: nodeKey{blob: 2, version: 1, pages: pageRange{count: 4}}, node: treeNode{left: nodeRef{blob: 1, ver: 1}}}
	if err := c.put([]keyedNode{root}); err != nil {
		t.Fatal(err)
	}
	if !cached(c, root.key) {
		t.Fatal("just-inserted root was evicted by the trim")
	}
	if cached(c, testLeaf(1).key) {
		t.Fatal("trim kept the least-recently-used entry over newer ones")
	}
	for v := Version(2); v <= 4; v++ {
		if !cached(c, testLeaf(v).key) {
			t.Fatalf("trim evicted v%d's leaf; only the LRU entry should go", v)
		}
	}
}

// TestMetaCacheGetRefreshesRecency: a hit protects an entry from the
// next eviction, and an evicted node refetches from the DHT.
func TestMetaCacheGetRefreshesRecency(t *testing.T) {
	c := newTestMetaCache(t, 3)
	for v := Version(1); v <= 3; v++ {
		if err := c.put([]keyedNode{testLeaf(v)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := c.cached(testLeaf(1).key); !ok { // touch the oldest
		t.Fatal("v1's leaf missing")
	}
	if err := c.put([]keyedNode{testLeaf(4)}); err != nil {
		t.Fatal(err)
	}
	if !cached(c, testLeaf(1).key) {
		t.Fatal("recently-read v1 leaf was evicted")
	}
	if cached(c, testLeaf(2).key) {
		t.Fatal("v2's leaf should have been the LRU victim")
	}

	// The evicted leaf is still in the DHT: a walk refetches and caches it.
	leaves, err := walkTree(1, 2, 1, 0, 1, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(leaves) != 1 || !slices.Equal(leaves[0].Providers, []cluster.NodeID{2}) {
		t.Fatalf("refetched leaves %+v", leaves)
	}
	if !cached(c, testLeaf(2).key) {
		t.Fatal("the refetched leaf was not cached")
	}
}

// TestMetaCacheSingleShardLRUSemantics: with one shard the cache is a
// single LRU over its whole capacity. Inserts go to the front, a hit
// refreshes recency, and an insert at capacity evicts exactly the
// least-recently-used node.
func TestMetaCacheSingleShardLRUSemantics(t *testing.T) {
	c := newCachedMeta(nil, 1, 3)
	if len(c.shards) != 1 || c.shards[0].cap != 3 {
		t.Fatalf("%d shards of %d entries, want 1 of 3", len(c.shards), c.shards[0].cap)
	}
	for v := Version(1); v <= 3; v++ {
		c.remember(testLeaf(v).key, testLeaf(v).node)
	}
	if _, ok := c.cached(testLeaf(1).key); !ok { // touch the oldest
		t.Fatal("v1's leaf missing")
	}
	c.remember(testLeaf(4).key, testLeaf(4).node)
	if !cached(c, testLeaf(1).key) {
		t.Fatal("recently-read v1 leaf was evicted")
	}
	if cached(c, testLeaf(2).key) {
		t.Fatal("v2's leaf should have been the LRU victim")
	}
	if !cached(c, testLeaf(3).key) || !cached(c, testLeaf(4).key) {
		t.Fatal("the v3 and v4 leaves should survive")
	}
	if n := c.shards[0].n; n != 3 {
		t.Fatalf("%d entries, want 3", n)
	}
}

// TestMetaCacheOverwriteRefreshes: remembering a cached key (the
// rebalancer's leaf rewrite) replaces the node in place and protects it
// from the next eviction.
func TestMetaCacheOverwriteRefreshes(t *testing.T) {
	c := newTestMetaCache(t, 2)
	c.remember(testLeaf(1).key, testLeaf(1).node)
	c.remember(testLeaf(2).key, testLeaf(2).node)
	moved := treeNode{providers: []cluster.NodeID{7}}
	c.remember(testLeaf(1).key, moved) // v2's leaf becomes the LRU entry
	c.remember(testLeaf(3).key, testLeaf(3).node)
	if cached(c, testLeaf(2).key) {
		t.Fatal("v2's leaf should have been evicted")
	}
	if n, ok := c.cached(testLeaf(1).key); !ok || !slices.Equal(n.providers, moved.providers) {
		t.Fatalf("rewritten leaf = %v, %v; want %v", n.providers, ok, moved.providers)
	}
}

// TestMetaCachePerShardEviction: each shard evicts its own least
// recently used entries, in insertion order, and never another shard's.
func TestMetaCachePerShardEviction(t *testing.T) {
	c := newCachedMeta(nil, 4, 8) // 2 entries per shard
	var victim []keyedNode        // leaves of one shard
	var other keyedNode           // a leaf of another
	for v := Version(1); len(victim) < 5 || other.key.version == 0; v++ {
		if c.shard(testLeaf(v).key) == &c.shards[0] {
			victim = append(victim, testLeaf(v))
		} else if other.key.version == 0 {
			other = testLeaf(v)
		}
	}
	victim = victim[:5]
	c.remember(other.key, other.node)
	for _, kn := range victim {
		c.remember(kn.key, kn.node)
	}
	for i, kn := range victim {
		if want := i >= len(victim)-2; cached(c, kn.key) != want {
			t.Fatalf("victim %d cached = %v, want %v", i, !want, want)
		}
	}
	if !cached(c, other.key) {
		t.Fatal("eviction in shard 0 reached another shard")
	}
}

// TestMetaCacheCapacityClamp: the shard count rounds up to a power of
// two, and a degenerate capacity still holds one entry per shard.
func TestMetaCacheCapacityClamp(t *testing.T) {
	c := newCachedMeta(nil, 3, 0)
	if len(c.shards) != 4 || c.shards[0].cap != 1 {
		t.Fatalf("%d shards of %d entries, want 4 of 1", len(c.shards), c.shards[0].cap)
	}
	c.remember(testLeaf(1).key, testLeaf(1).node)
	if n, ok := c.cached(testLeaf(1).key); !ok || n.providers[0] != 1 {
		t.Fatalf("cached = %v, %v", n.providers, ok)
	}
}

// TestMetaCacheConcurrentStress drives concurrent puts, hits and DHT
// refetches through a sharded cachedMeta under -race: writers publish
// batches of immutable nodes, readers look up overlapping key sets
// (hits, misses and refetches all race across shards, and the small
// capacity forces eviction). Then every shard's table, slots and LRU
// list must agree.
func TestMetaCacheConcurrentStress(t *testing.T) {
	env := cluster.NewLocal(2, 2)
	cl := dht.NewCluster([]cluster.NodeID{1}, 4, 1).NewClient(env, 0)
	c := newCachedMeta(cl, 16, 64) // small: force eviction races

	const workers = 8
	const rounds = 50
	// Metadata nodes are immutable: every writer stores the same value
	// under a given key, as the contract requires.
	node := func(v Version, off int64) keyedNode {
		return keyedNode{key: nodeKey{blob: 1, version: v, pages: pageRange{off: off, count: 1}}, node: treeNode{providers: []cluster.NodeID{cluster.NodeID(v), cluster.NodeID(off)}}}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				var batch, reads []keyedNode
				for i := int64(0); i < 4; i++ {
					batch = append(batch, node(Version((w+r)%workers+1), i))
					reads = append(reads, node(Version((w+r)%workers+1), i), node(Version((w+r+1)%workers+1), i))
				}
				if err := c.put(batch); err != nil {
					t.Error(err)
					return
				}
				for _, want := range reads {
					n, ok := c.cached(want.key)
					if !ok {
						// A miss refetches the node from the DHT and caches
						// it, as a walk does.
						vals := make([][]byte, 1)
						c.fetch([][]byte{want.key.appendTo(nil)}, vals)
						if ok = vals[0] != nil; ok {
							var err error
							if n, _, err = decodeNode(vals[0], true, nil); err != nil {
								t.Error(err)
								return
							}
							c.remember(want.key, n)
						}
					}
					if ok && !slices.Equal(n.providers, want.node.providers) {
						t.Errorf("%s = %v, want %v", want.key.appendTo(nil), n.providers, want.node.providers)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	checkMetaCacheConsistent(t, c)
}

// TestMetaCacheShardedStress hammers 16 shards from many goroutines
// under -race through remember and cached alone: overlapping writes
// and hits on a shared key set plus keys of each goroutine's own,
// which overflow every shard. Hits must return the node stored under
// their key, and every shard must stay within capacity and agree with
// itself.
func TestMetaCacheShardedStress(t *testing.T) {
	const (
		workers = 16
		rounds  = 400
		shared  = 64
	)
	c := newCachedMeta(nil, 16, 256)
	node := func(blob BlobID, v Version) keyedNode {
		return keyedNode{key: nodeKey{blob: blob, version: v, pages: pageRange{count: 1}}, node: treeNode{providers: []cluster.NodeID{cluster.NodeID(blob), cluster.NodeID(v)}}}
	}
	check := func(want keyedNode) bool {
		if n, ok := c.cached(want.key); ok && !slices.Equal(n.providers, want.node.providers) {
			t.Errorf("%s = %v, want %v", want.key.appendTo(nil), n.providers, want.node.providers)
			return false
		}
		return true
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				sk := node(1, Version((w+i)%shared+1))
				if !check(sk) {
					return
				}
				c.remember(sk.key, sk.node)
				own := node(BlobID(w+2), Version(i+1))
				c.remember(own.key, own.node)
				if !check(own) {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	checkMetaCacheConsistent(t, c)
}

// checkMetaCacheConsistent checks that every shard of c holds at most
// its capacity and that its table, slots and LRU list agree.
func checkMetaCacheConsistent(t *testing.T, c *cachedMeta) {
	t.Helper()
	for si := range c.shards {
		s := &c.shards[si]
		entries := int(s.n)
		if entries > int(s.cap) || 2*entries > len(s.table) {
			t.Fatalf("shard %d: %d entries, capacity %d, %d table cells", si, entries, s.cap, len(s.table))
		}
		indexed := 0
		for _, i := range s.table {
			if i != 0 {
				indexed++
				if _, at := s.find(s.slot(i - 1).key); at != i-1 {
					t.Fatalf("shard %d: slot %d's key finds slot %d", si, i-1, at)
				}
			}
		}
		listed := 0
		for i := s.head; i >= 0; i = s.slot(i).next {
			if next := s.slot(i).next; next >= 0 && s.slot(next).prev != i || next < 0 && s.tail != i {
				t.Fatalf("shard %d: slot %d's successor does not link back", si, i)
			}
			if listed++; listed > entries {
				t.Fatalf("shard %d: the LRU list has a cycle", si)
			}
		}
		if indexed != entries || listed != entries {
			t.Fatalf("shard %d: %d entries, %d indexed, %d listed", si, entries, indexed, listed)
		}
	}
}

// gatherEnv records every Gather charge: a walk's DHT batches are its
// only gathers.
type gatherEnv struct {
	cluster.Env
	mu    sync.Mutex
	bytes []int64
}

func (e *gatherEnv) Gather(to cluster.NodeID, srcs []cluster.NodeID, size int64, diskFraction float64) {
	e.mu.Lock()
	e.bytes = append(e.bytes, size)
	e.mu.Unlock()
	e.Env.Gather(to, srcs, size, diskFraction)
}

// batchSource records the keys of each DHT batch a walk issues.
type batchSource struct {
	*cachedMeta
	keys []int
}

func (b *batchSource) fetch(keys, vals [][]byte) {
	b.keys = append(b.keys, len(keys))
	b.cachedMeta.fetch(keys, vals)
}

// TestWalkDHTTraffic pins, exactly, the DHT traffic of a tree walk on a
// fixed three-version tree: one batch per tree level holding only the
// nodes the client has not cached, each charged as one gather of the
// keys' and values' bytes. A fresh client's walk misses every node; a
// repeat walk costs nothing; a walk after a narrower one fetches only
// what the narrower one did not.
func TestWalkDHTTraffic(t *testing.T) {
	const ps = 4 << 10
	env := &gatherEnv{Env: cluster.NewLocal(4, 2)}
	d, err := NewDeployment(env, Options{PageSize: ps, ProviderNodes: []cluster.NodeID{1}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	blob, err := d.NewClient(0).CreateBlob(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := blob.Append(SyntheticBlocks(16 * ps)); err != nil { // v1: pages [0,16)
		t.Fatal(err)
	}
	if _, err := blob.WriteAt(nil, 4*ps, Synthetic(2*ps)); err != nil { // v2: [4,6)
		t.Fatal(err)
	}
	if _, _, err := blob.Append(SyntheticBlocks(4 * ps)); err != nil { // v3: [16,20), capacity 32
		t.Fatal(err)
	}
	walk := func(c *Client, lo, hi int64) (keys []int, bytes []int64) {
		t.Helper()
		src := &batchSource{cachedMeta: c.meta}
		env.bytes = nil
		leaves, err := walkTree(blob.ID(), 3, 32, lo, hi, src, nil)
		if err != nil || int64(len(leaves)) != hi-lo {
			t.Fatalf("walk [%d,%d): %d leaves, %v", lo, hi, len(leaves), err)
		}
		return src.keys, env.bytes
	}
	check := func(what string, keys []int, bytes []int64, wantKeys []int, wantBytes []int64) {
		t.Helper()
		if !slices.Equal(keys, wantKeys) || !slices.Equal(bytes, wantBytes) {
			t.Errorf("%s: batches of %v keys, gathers of %v bytes; want %v keys, %v bytes", what, keys, bytes, wantKeys, wantBytes)
		}
	}
	cold := d.NewClient(2)
	keys, bytes := walk(cold, 0, 20)
	check("cold walk", keys, bytes, []int{1, 2, 3, 5, 10, 20}, []int64{43, 87, 127, 212, 425, 390})
	keys, bytes = walk(cold, 0, 20)
	check("warm walk", keys, bytes, nil, nil)
	part := d.NewClient(2)
	keys, bytes = walk(part, 4, 6)
	check("narrow walk", keys, bytes, []int{1, 1, 1, 1, 1, 2}, []int64{43, 43, 42, 42, 42, 38})
	keys, bytes = walk(part, 0, 20)
	check("walk after a narrower one", keys, bytes, []int{1, 2, 4, 9, 18}, []int64{44, 85, 170, 383, 352})
}
