package dht

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
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
	got := fetch(cl, append(keys, "absent"))
	for i, k := range keys {
		if string(got[i]) != string(kvs[k]) {
			t.Fatalf("key %s: got %q want %q", k, got[i], kvs[k])
		}
	}
	if got[len(keys)] != nil {
		t.Fatalf("absent key: got %q", got[len(keys)])
	}
}

// fetch is Fetch over string keys.
func fetch(cl *Client, keys []string) [][]byte {
	bk := make([][]byte, len(keys))
	for i, k := range keys {
		bk[i] = []byte(k)
	}
	vals := make([][]byte, len(keys))
	cl.Fetch(bk, vals)
	return vals
}

func TestEmptyBatches(t *testing.T) {
	_, cl := newTestCluster(3, 1)
	if err := cl.BatchPut(nil); err != nil {
		t.Fatal(err)
	}
	cl.Fetch(nil, nil)
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
	got := fetch(cl, keys)
	for i, k := range keys {
		if v := got[i]; v == nil || v[0] != kvs[k][0] {
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
		if hb, hs := hash64([]byte(s)), hash64(s); hb != hs {
			t.Fatalf("hash64 of %q as bytes = %#x, as a string = %#x", s, hb, hs)
		}
	}
}

// TestLookupAppendReusesBuffer: lookupHash appends after the given
// prefix and reuses capacity.
func TestLookupAppendReusesBuffer(t *testing.T) {
	r := NewRing(nodes(8), 16, 3)
	h := hash64("a")
	buf := make([]cluster.NodeID, 0, 8)
	first := append([]cluster.NodeID(nil), r.lookupHash(buf, h, 3)...)
	buf = r.lookupHash(buf[:0], h, 3)
	if fmt.Sprint(buf) != fmt.Sprint(first) {
		t.Fatalf("reused buffer lookup %v != %v", buf, first)
	}
	if got, want := fmt.Sprint(buf), fmt.Sprint(r.LookupN("a", 3)); got != want {
		t.Fatalf("lookupHash = %s, LookupN = %s", got, want)
	}
	// Appending after a non-empty prefix keeps the prefix intact and
	// dedups only within the appended portion.
	pre := []cluster.NodeID{buf[0]}
	out := r.lookupHash(pre, h, 3)
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

// batch renders keys "key/i" with values "val/i/<salt>" for i in
// [from, to).
func batch(from, to int, salt string) (keys, vals [][]byte) {
	for i := from; i < to; i++ {
		keys = append(keys, []byte(fmt.Sprintf("key/%d", i)))
		vals = append(vals, []byte(fmt.Sprintf("val/%d/%s", i, salt)))
	}
	return keys, vals
}

func storeOn(t *testing.T, cl *Client, from, to int, salt string) {
	t.Helper()
	if err := cl.Store(batch(from, to, salt)); err != nil {
		t.Fatal(err)
	}
}

// TestServerTableManyKeys fills one server's table and arena through
// many growths: every key reads back, absent keys miss, and an
// overwrite wins while the key is counted once.
func TestServerTableManyKeys(t *testing.T) {
	const n = 50000
	c, cl := newTestCluster(1, 1)
	for lo := 0; lo < n; lo += 1000 {
		storeOn(t, cl, lo, lo+1000, "a")
	}
	storeOn(t, cl, 7, 8, "b")
	if got := c.TotalKeys(); got != n {
		t.Fatalf("TotalKeys = %d, want %d", got, n)
	}
	var keys []string
	for i := 0; i < n+100; i++ {
		keys = append(keys, fmt.Sprintf("key/%d", i))
	}
	for i, v := range fetch(cl, keys) {
		want := fmt.Sprintf("val/%d/a", i)
		switch {
		case i == 7:
			want = "val/7/b"
		case i >= n:
			if v != nil {
				t.Fatalf("absent %s = %q", keys[i], v)
			}
			continue
		}
		if string(v) != want {
			t.Fatalf("%s = %q, want %q", keys[i], v, want)
		}
	}
}

// TestFetchWindowsCapped: values are windows of one arena chunk, so a
// caller appending to one must not write into its neighbour.
func TestFetchWindowsCapped(t *testing.T) {
	_, cl := newTestCluster(1, 1)
	storeOn(t, cl, 0, 2, "x")
	got := fetch(cl, []string{"key/0", "key/1"})
	_ = append(got[0], "XXXXXXXXXXXX"...)
	if again := fetch(cl, []string{"key/1"}); string(got[1]) != "val/1/x" || string(again[0]) != "val/1/x" {
		t.Fatalf("neighbour reads %q, then %q, after an append to key/0's value", got[1], again[0])
	}
}

// recordingEnv logs the charges a DHT client makes.
type recordingEnv struct {
	*cluster.Local
	log []string
}

func (e *recordingEnv) RTT(from, to cluster.NodeID) {
	e.log = append(e.log, fmt.Sprintf("RTT %d->%d", from, to))
}

func (e *recordingEnv) Scatter(from cluster.NodeID, dests []cluster.NodeID, size int64, _ float64) {
	e.log = append(e.log, fmt.Sprintf("Scatter %d->%v %d B", from, dests, size))
}

// legacyBatchPut charges and fails the way BatchPut did when it grouped
// keys by destination through maps: the reference Store must match.
func legacyBatchPut(c *Client, kvs map[string][]byte) error {
	groups := map[cluster.NodeID]bool{}
	var total int64
	for k, v := range kvs {
		total += int64(len(k) + len(v))
		for _, n := range c.dht.ring.LookupN(k, c.dht.ring.replication) {
			groups[n] = true
		}
	}
	var dests []cluster.NodeID
	for n := range groups {
		dests = append(dests, n)
	}
	slices.Sort(dests)
	c.env.RTT(c.from, cluster.Farthest(c.env, c.from, dests))
	c.env.Scatter(c.from, dests, total*int64(c.dht.ring.replication), 0)
	for _, n := range dests {
		if !c.dht.servers[n].down {
			return nil
		}
	}
	return fmt.Errorf("all %d down", len(dests))
}

// TestStoreChargesAsMapGrouping: over random batches at replications
// 1-3, some with servers down, Store charges the same round trip, the
// same scatter (destinations in the same order, the same bytes) and
// fails alike as the map grouping it replaced.
func TestStoreChargesAsMapGrouping(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 300; trial++ {
		n, repl := 3+rng.Intn(8), 1+trial%3
		var envs [2]*recordingEnv
		var clients [2]*Client
		down := rng.Perm(n)[:rng.Intn(n+1)*rng.Intn(2)]
		for i := range envs {
			envs[i] = &recordingEnv{Local: cluster.NewLocal(n, 2)}
			c := NewCluster(nodes(n), 8, repl)
			for _, d := range down {
				c.Server(cluster.NodeID(d)).SetDown(true)
			}
			clients[i] = c.NewClient(envs[i], cluster.NodeID(rng.Intn(n)))
		}
		clients[1].from = clients[0].from
		kvs := map[string][]byte{}
		var keys, vals [][]byte
		for i := 0; i < 1+rng.Intn(40); i++ {
			k := fmt.Sprintf("m/%d/%d/%d", rng.Intn(5), rng.Intn(100), i)
			v := make([]byte, rng.Intn(40))
			kvs[k] = v
			keys, vals = append(keys, []byte(k)), append(vals, v)
		}
		err := clients[0].Store(keys, vals)
		legacy := legacyBatchPut(clients[1], kvs)
		if got, want := fmt.Sprint(envs[0].log), fmt.Sprint(envs[1].log); got != want || (err == nil) != (legacy == nil) {
			t.Fatalf("trial %d (%d nodes, replication %d, down %v): Store charged %s, error %v; map grouping charged %s, error %v",
				trial, n, repl, down, got, err, want, legacy)
		}
	}
}

// TestFetchWhileStoring: readers hold values fetched from one server,
// each just stored, while writers keep filling the same arena chunk
// behind them; every held value must keep its bytes (run it under
// -race).
func TestFetchWhileStoring(t *testing.T) {
	const writers, perWriter = 2, 3000
	_, cl := newTestCluster(1, 1)
	var stored [writers]atomic.Int64 // each writer's keys below this are stored
	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w * perWriter; i < (w+1)*perWriter; i++ {
				if err := cl.Store(batch(i, i+1, "x")); err != nil {
					t.Error(err)
					return
				}
				stored[w].Store(int64(i + 1))
			}
		}()
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var keys []string
			var held [][]byte
			for j := 0; j < 2000; j++ {
				w := (j + r) % writers
				if i := int(stored[w].Load()) - 1; i >= w*perWriter {
					keys = append(keys, fmt.Sprintf("key/%d", i))
					held = append(held, fetch(cl, keys[len(keys)-1:])...)
				}
			}
			for j, v := range held {
				if want := "val/" + keys[j][len("key/"):] + "/x"; string(v) != want {
					t.Errorf("held %s = %q, want %q", keys[j], v, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
