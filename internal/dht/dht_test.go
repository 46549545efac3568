package dht

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
)

func nodes(n int) []cluster.NodeID {
	out := make([]cluster.NodeID, n)
	for i := range out {
		out[i] = cluster.NodeID(i)
	}
	return out
}

func TestRingLookupDeterministic(t *testing.T) {
	r := NewRing(nodes(10), 32, 3)
	a := r.lookup("some/key")
	b := r.lookup("some/key")
	if len(a) != 3 {
		t.Fatalf("replica set size = %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("lookup not deterministic")
		}
	}
	seen := map[cluster.NodeID]bool{}
	for _, n := range a {
		if seen[n] {
			t.Fatal("duplicate node in replica set")
		}
		seen[n] = true
	}
}

func TestRingReplicationClamped(t *testing.T) {
	r := NewRing(nodes(2), 8, 5)
	if got := len(r.lookup("k")); got != 2 {
		t.Fatalf("replicas = %d, want 2", got)
	}
}

func TestRingBalance(t *testing.T) {
	r := NewRing(nodes(16), 64, 1)
	counts := map[cluster.NodeID]int{}
	const keys = 20000
	for i := 0; i < keys; i++ {
		counts[r.lookup(fmt.Sprintf("key-%d", i))[0]]++
	}
	want := keys / 16
	for n, c := range counts {
		if c < want/2 || c > want*2 {
			t.Fatalf("node %d holds %d keys, want within [%d,%d]", n, c, want/2, want*2)
		}
	}
}

func TestRingStabilityUnderGrowth(t *testing.T) {
	// Consistent hashing: adding a node moves only ~1/n of the keys.
	r1 := NewRing(nodes(10), 64, 1)
	r2 := NewRing(nodes(11), 64, 1)
	moved := 0
	const keys = 10000
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("key-%d", i)
		if r1.lookup(k)[0] != r2.lookup(k)[0] {
			moved++
		}
	}
	if moved > keys/4 {
		t.Fatalf("%d/%d keys moved when adding 1 of 11 nodes", moved, keys)
	}
}

func TestRingAddRemoveNode(t *testing.T) {
	// A mutated ring must route exactly like a ring built fresh over the
	// same membership; a duplicate add and an absent remove are no-ops.
	r := NewRing(nodes(10), 64, 2)
	r.AddNode(cluster.NodeID(10))
	r.AddNode(cluster.NodeID(10)) // duplicate: no-op
	if r.Size() != 11 {
		t.Fatalf("size after adding one node twice = %d, want 11", r.Size())
	}
	r.RemoveNode(cluster.NodeID(3))
	r.RemoveNode(cluster.NodeID(3)) // absent: no-op
	if r.Size() != 10 {
		t.Fatalf("size after removing one node twice = %d, want 10", r.Size())
	}

	want := []cluster.NodeID{0, 1, 2, 4, 5, 6, 7, 8, 9, 10}
	fresh := NewRing(want, 64, 2)
	for i := 0; i < 5000; i++ {
		k := fmt.Sprintf("key-%d", i)
		a, b := r.lookup(k), fresh.lookup(k)
		if len(a) != len(b) {
			t.Fatalf("key %s: %v vs fresh %v", k, a, b)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("key %s: mutated ring routes %v, fresh ring %v", k, a, b)
			}
		}
	}
}

func TestRingAddNodeMinimalMovement(t *testing.T) {
	// In-place AddNode moves only ~1/n of the keys (consistent hashing).
	r := NewRing(nodes(10), 64, 1)
	const keys = 10000
	before := make([]cluster.NodeID, keys)
	for i := range before {
		before[i] = r.lookup(fmt.Sprintf("key-%d", i))[0]
	}
	r.AddNode(cluster.NodeID(10))
	moved := 0
	for i := range before {
		after := r.lookup(fmt.Sprintf("key-%d", i))[0]
		if after != before[i] {
			moved++
			if after != cluster.NodeID(10) {
				t.Fatalf("key-%d moved to %d, not the new node", i, after)
			}
		}
	}
	if moved > keys/4 {
		t.Fatalf("%d/%d keys moved when adding 1 of 11 nodes", moved, keys)
	}
	if moved == 0 {
		t.Fatal("new node received no keys")
	}
}

func TestRingRemoveNodeKeepsLast(t *testing.T) {
	r := NewRing(nodes(1), 8, 1)
	r.RemoveNode(cluster.NodeID(0))
	if got := r.lookup("k"); len(got) != 1 || got[0] != 0 {
		t.Fatalf("lookup after removing last node = %v", got)
	}
}

func newTestCluster(n, repl int) (*Cluster, *Client) {
	env := cluster.NewLocal(n, 0)
	c := NewCluster(nodes(n), 16, repl)
	return c, c.NewClient(env, 0)
}

func TestPutGet(t *testing.T) {
	_, cl := newTestCluster(5, 2)
	if err := cl.Put("a", []byte("value")); err != nil {
		t.Fatal(err)
	}
	v, err := cl.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "value" {
		t.Fatalf("got %q", v)
	}
}

func TestGetMissing(t *testing.T) {
	_, cl := newTestCluster(3, 1)
	if _, err := cl.Get("missing"); err == nil {
		t.Fatal("expected error")
	}
}

func TestBatchRoundTrip(t *testing.T) {
	_, cl := newTestCluster(8, 2)
	kvs := map[string][]byte{}
	var keys []string
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("node/%d", i)
		kvs[k] = []byte(fmt.Sprintf("payload-%d", i))
		keys = append(keys, k)
	}
	if err := cl.BatchPut(kvs); err != nil {
		t.Fatal(err)
	}
	got, err := cl.BatchGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("got %d keys", len(got))
	}
	for k, v := range kvs {
		if string(got[k]) != string(v) {
			t.Fatalf("key %s: got %q want %q", k, got[k], v)
		}
	}
}

func TestEmptyBatches(t *testing.T) {
	_, cl := newTestCluster(3, 1)
	if err := cl.BatchPut(nil); err != nil {
		t.Fatal(err)
	}
	res, err := cl.BatchGet(nil)
	if err != nil || len(res) != 0 {
		t.Fatalf("BatchGet(nil) = %v, %v", res, err)
	}
}

func TestReplicationSurvivesFailure(t *testing.T) {
	c, cl := newTestCluster(6, 3)
	kvs := map[string][]byte{}
	var keys []string
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("k%d", i)
		kvs[k] = []byte{byte(i)}
		keys = append(keys, k)
	}
	if err := cl.BatchPut(kvs); err != nil {
		t.Fatal(err)
	}
	// Kill two of six servers: with replication 3, every key survives.
	c.Server(0).SetDown(true)
	c.Server(3).SetDown(true)
	got, err := cl.BatchGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if v, ok := got[k]; !ok || v[0] != kvs[k][0] {
			t.Fatalf("key %s lost after 2 failures", k)
		}
	}
}

func TestAllReplicasDownFailsPut(t *testing.T) {
	c, cl := newTestCluster(2, 2)
	c.Server(0).SetDown(true)
	c.Server(1).SetDown(true)
	if err := cl.Put("k", []byte("v")); err == nil {
		t.Fatal("expected failure with all servers down")
	}
}

func TestReplicaCountOnServers(t *testing.T) {
	c, cl := newTestCluster(5, 3)
	for i := 0; i < 50; i++ {
		cl.Put(fmt.Sprintf("k%d", i), []byte("x"))
	}
	if got := c.TotalKeys(); got != 150 {
		t.Fatalf("TotalKeys = %d, want 150 (50 keys x 3 replicas)", got)
	}
}

func TestOverwriteLatestWins(t *testing.T) {
	_, cl := newTestCluster(4, 2)
	cl.Put("k", []byte("old"))
	cl.Put("k", []byte("new"))
	v, err := cl.Get("k")
	if err != nil || string(v) != "new" {
		t.Fatalf("got %q, %v", v, err)
	}
}

func TestQuickPutGetProperty(t *testing.T) {
	_, cl := newTestCluster(7, 2)
	f := func(key string, val []byte) bool {
		if key == "" {
			key = "empty"
		}
		if err := cl.Put(key, val); err != nil {
			return false
		}
		got, err := cl.Get(key)
		if err != nil {
			return false
		}
		if len(got) != len(val) {
			return false
		}
		for i := range val {
			if got[i] != val[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Fatal(err)
	}
}

// TestPointsForFormatPinned pins pointsFor's hash input to the
// historical fmt.Sprintf("%d|%d", node, vnode) rendering through the
// fnv.New64a + splitmix64 pipeline. The vnode point hashes ARE the
// ring layout: if this test fails, every deployed placement moves.
func TestPointsForFormatPinned(t *testing.T) {
	for _, n := range []cluster.NodeID{0, 1, 7, 199, 65536, -3} {
		for _, pts := range [][]point{pointsFor(n, 5)} {
			for v, pt := range pts {
				ref := fnv.New64a()
				fmt.Fprintf(ref, "%d|%d", n, v)
				want := mix64(ref.Sum64())
				if pt.hash != want {
					t.Fatalf("pointsFor(%d)[%d].hash = %#x, want %#x (fmt/fnv reference)", n, v, pt.hash, want)
				}
				if pt.node != n {
					t.Fatalf("pointsFor(%d)[%d].node = %d", n, v, pt.node)
				}
			}
		}
	}
}

// TestHash64BytesMatchesString: a key hashes alike as bytes and as a
// string.
func TestHash64BytesMatchesString(t *testing.T) {
	for _, s := range []string{"", "p/1/2/3", "m/9/42/128/8", "x"} {
		if hb, hs := hash64Bytes([]byte(s)), hash64(s); hb != hs {
			t.Fatalf("hash64Bytes(%q) = %#x, hash64 = %#x", s, hb, hs)
		}
	}
}

// TestLookupAppendReusesBuffer: lookupAppend appends after the given
// prefix and reuses capacity.
func TestLookupAppendReusesBuffer(t *testing.T) {
	r := NewRing(nodes(8), 16, 3)
	buf := make([]cluster.NodeID, 0, 8)
	first := append([]cluster.NodeID(nil), r.lookupAppend(buf, "a", 3)...)
	buf = r.lookupAppend(buf[:0], "a", 3)
	if fmt.Sprint(buf) != fmt.Sprint(first) {
		t.Fatalf("reused buffer lookup %v != %v", buf, first)
	}
	if got, want := fmt.Sprint(buf), fmt.Sprint(r.LookupN("a", 3)); got != want {
		t.Fatalf("lookupAppend = %s, LookupN = %s", got, want)
	}
	// Appending after a non-empty prefix keeps the prefix intact and
	// dedups only within the appended portion.
	pre := []cluster.NodeID{buf[0]}
	out := r.lookupAppend(pre, "a", 3)
	if out[0] != pre[0] || fmt.Sprint(out[1:]) != fmt.Sprint(first) {
		t.Fatalf("prefixed append = %v (first=%v)", out, first)
	}
}

// Put stores one key on its replica set.
func (c *Client) Put(key string, val []byte) error {
	return c.BatchPut(map[string][]byte{key: val})
}

// lookup returns the replica set for a key: the first `replication`
// distinct nodes walking clockwise from the key's hash.
func (r *Ring) lookup(key string) []cluster.NodeID {
	return r.LookupN(key, r.replication)
}
