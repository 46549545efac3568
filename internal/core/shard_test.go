// shard_test.go covers the sharded version-manager tier: the pure
// blob-id routing function, per-shard stride allocation, single-shard
// identity with the paper's centralized manager, cross-shard blob
// enumeration (and the repair sweep over it), clone shard affinity,
// the modeled per-RPC service occupancy, and an end-to-end multi-shard
// write/read through the client.
package core

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/simnet"
)

func localShardedDeployment(t *testing.T, shards int) *Deployment {
	t.Helper()
	env := cluster.NewLocal(8, 0)
	vmNodes := make([]cluster.NodeID, shards)
	for i := range vmNodes {
		vmNodes[i] = cluster.NodeID(i)
	}
	d, err := NewDeployment(env, Options{
		PageSize:      128,
		ProviderNodes: []cluster.NodeID{1, 2, 3},
		VMNodes:       vmNodes,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

// TestRouterOnlyRoutes pins the router's exported surface: the tier-wide
// operations and the routing function, nothing per-blob (callers reach
// those through Shard(blob)), and no post-construction Set* knob on the
// router or the shards — so the mirror of the VersionManager API cannot
// grow back.
func TestRouterOnlyRoutes(t *testing.T) {
	methods := func(v any) []string {
		typ := reflect.TypeOf(v)
		out := make([]string, typ.NumMethod())
		for i := range out {
			out[i] = typ.Method(i).Name
		}
		return out // reflect lists exported methods sorted by name
	}
	want := []string{"Blobs", "CreateBlob", "Nodes", "NumShards", "Shard", "ShardIndex", "Shards"}
	if got := methods(&VersionRouter{}); !reflect.DeepEqual(got, want) {
		t.Errorf("VersionRouter exports %v, want exactly %v", got, want)
	}
	for _, v := range []any{&VersionRouter{}, &VersionManager{}} {
		for _, m := range methods(v) {
			if strings.HasPrefix(m, "Set") {
				t.Errorf("%T has setter %s: model values arrive at construction", v, m)
			}
		}
	}
}

// TestVersionManagerSurface pins the manager's exported methods: the
// per-blob RPCs a client reaches through Shard(blob), and the two
// accessors naming the shard. A new export needs a non-test caller.
func TestVersionManagerSurface(t *testing.T) {
	typ := reflect.TypeOf(&VersionManager{})
	got := make([]string, typ.NumMethod())
	for i := range got {
		got[i] = typ.Method(i).Name
	}
	want := []string{"AbortBatch", "AwaitPublished", "Blobs", "Clone", "CreateBlob", "GetVersion", "IsAborted", "Latest",
		"LatestRecord", "Node", "PageSize", "PublishBatch", "PublishBatchAsync", "Records", "RequestTickets", "ShardIndex"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("VersionManager exports %v, want exactly %v", got, want)
	}
}

// TestOptionsSurface pins the exported fields of Options and
// ProviderConfig. The admission rule for a new field: it needs a
// non-test setter (bsfsd, bsfs-bench, an experiment) with a second value
// in use. A value only tests set is an unexported field the test sets
// itself; a value nothing varies is a constant at its use site; a field
// that selects an old code path is not added — the old path is deleted.
func TestOptionsSurface(t *testing.T) {
	fields := func(v any) []string {
		typ := reflect.TypeOf(v)
		var out []string
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				out = append(out, f.Name)
			}
		}
		return out
	}
	want := []string{"PageSize", "Replication", "VMNodes", "VMServiceTime", "ProviderNodes", "MetaNodes",
		"MetaReplication", "Provider", "Strategy", "PlacementInterval", "HeartbeatInterval", "TenantRate", "TenantBurst"}
	if got := fields(Options{}); !reflect.DeepEqual(got, want) {
		t.Errorf("Options has fields %v, want exactly %v", got, want)
	}
	want = []string{"MemCapacity", "Store"}
	if got := fields(ProviderConfig{}); !reflect.DeepEqual(got, want) {
		t.Errorf("ProviderConfig has fields %v, want exactly %v", got, want)
	}
}

// TestSingleShardRoutingIdentity: a one-shard tier is the paper's
// centralized manager — every blob routes to shard 0 and ids come out
// as the dense sequence 1, 2, 3, ...
func TestSingleShardRoutingIdentity(t *testing.T) {
	d := localShardedDeployment(t, 1)
	if n := d.VM.NumShards(); n != 1 {
		t.Fatalf("NumShards = %d, want 1", n)
	}
	for _, id := range []BlobID{1, 2, 3, 17, 1 << 40} {
		if s := d.VM.ShardIndex(id); s != 0 {
			t.Fatalf("ShardIndex(%d) = %d in a single-shard tier", id, s)
		}
		if d.VM.Shard(id) != d.VM.Shards()[0] {
			t.Fatalf("Shard(%d) is not the sole shard", id)
		}
	}
	c := d.NewClient(0)
	for want := BlobID(1); want <= 3; want++ {
		b, err := c.CreateBlob(0)
		if err != nil {
			t.Fatal(err)
		}
		if b.ID() != want {
			t.Fatalf("CreateBlob #%d returned id %d: single-shard allocation must stay dense", want, b.ID())
		}
	}
}

// TestShardStrideAllocation: with S shards, CreateBlob round-robins
// over them and every id encodes its owner (id mod S), with per-shard
// ids striding by S.
func TestShardStrideAllocation(t *testing.T) {
	const shards = 4
	d := localShardedDeployment(t, shards)
	c := d.NewClient(0)
	perShard := make(map[int][]BlobID)
	for i := 0; i < 12; i++ {
		b, err := c.CreateBlob(0)
		if err != nil {
			t.Fatal(err)
		}
		id := b.ID()
		idx := d.VM.ShardIndex(id)
		if got := int(id % shards); got != idx {
			t.Fatalf("blob %d: ShardIndex %d but id mod %d = %d", id, idx, shards, got)
		}
		if d.VM.Shard(id).ShardIndex() != idx {
			t.Fatalf("blob %d routed to shard %d, want %d", id, d.VM.Shard(id).ShardIndex(), idx)
		}
		perShard[idx] = append(perShard[idx], id)
	}
	if len(perShard) != shards {
		t.Fatalf("12 creations landed on %d of %d shards", len(perShard), shards)
	}
	for idx, ids := range perShard {
		for i := 1; i < len(ids); i++ {
			if ids[i] != ids[i-1]+shards {
				t.Fatalf("shard %d ids %v do not stride by %d", idx, ids, shards)
			}
		}
	}
}

// TestShardedWriteReadRoundTrip: blobs on different shards accept
// writes and serve reads independently through one client.
func TestShardedWriteReadRoundTrip(t *testing.T) {
	d := localShardedDeployment(t, 2)
	c := d.NewClient(1)
	payloads := map[*Blob][]byte{}
	for i := 0; i < 4; i++ {
		b, err := c.CreateBlob(0)
		if err != nil {
			t.Fatal(err)
		}
		data := bytes.Repeat([]byte{byte('a' + i)}, 300+i*17)
		if _, err := b.WriteAt(data, 0); err != nil {
			t.Fatalf("write blob %d: %v", b.ID(), err)
		}
		payloads[b] = data
	}
	seen := map[int]bool{}
	for b, want := range payloads {
		seen[d.VM.ShardIndex(b.ID())] = true
		buf := make([]byte, len(want))
		if _, err := b.ReadAt(buf, 0); err != nil {
			t.Fatalf("read blob %d: %v", b.ID(), err)
		}
		if !bytes.Equal(buf, want) {
			t.Fatalf("blob %d read back wrong bytes", b.ID())
		}
	}
	if len(seen) != 2 {
		t.Fatalf("4 blobs touched %d shards, want 2", len(seen))
	}
}

// TestCloneStaysOnSourceShard: a clone's id is allocated from its
// source's shard sequence, so the copied records stay shard-local and
// routing stays pure.
func TestCloneStaysOnSourceShard(t *testing.T) {
	d := localShardedDeployment(t, 3)
	c := d.NewClient(1)
	var blobs []*Blob
	for i := 0; i < 3; i++ {
		b, err := c.CreateBlob(0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.WriteAt([]byte("snapshot me"), 0); err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, b)
	}
	for _, src := range blobs {
		cl, err := src.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if d.VM.ShardIndex(cl.ID()) != d.VM.ShardIndex(src.ID()) {
			t.Fatalf("clone %d of blob %d changed shard: %d -> %d",
				cl.ID(), src.ID(), d.VM.ShardIndex(src.ID()), d.VM.ShardIndex(cl.ID()))
		}
		buf := make([]byte, len("snapshot me"))
		if _, err := cl.ReadAt(buf, 0); err != nil {
			t.Fatalf("read clone %d: %v", cl.ID(), err)
		}
	}
}

// TestBlobsMergedAcrossShards: the router's Blobs is the ascending
// merge of every shard's (sparse, strided) id list — and the sweep the
// repairer runs over it visits every shard's blobs.
func TestBlobsMergedAcrossShards(t *testing.T) {
	d := localShardedDeployment(t, 3)
	c := d.NewClient(1)
	var want []BlobID
	for i := 0; i < 7; i++ {
		b, err := c.CreateBlob(0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.WriteAt([]byte("x"), 0); err != nil {
			t.Fatal(err)
		}
		want = append(want, b.ID())
	}
	got := d.VM.Blobs(0)
	if len(got) != len(want) {
		t.Fatalf("Blobs returned %d ids, want %d", len(got), len(want))
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("Blobs not ascending: %v", got)
		}
	}
	inList := map[BlobID]bool{}
	for _, id := range got {
		inList[id] = true
	}
	for _, id := range want {
		if !inList[id] {
			t.Fatalf("blob %d missing from merged enumeration %v", id, got)
		}
	}
	st, err := d.Rebalance.SweepOnce()
	if err != nil {
		t.Fatal(err)
	}
	if st.PagesScanned < len(want) {
		t.Fatalf("cross-shard sweep scanned %d pages for %d one-page blobs", st.PagesScanned, len(want))
	}
}

// TestVersionManagerBlobsSparseIDs: a shard's Blobs enumeration must
// come from its blob table, not a dense range scan — with stride
// allocation the range would skip every foreign id and, worse, any id
// past a gap.
func TestVersionManagerBlobsSparseIDs(t *testing.T) {
	vm := NewVersionManagerShard(cluster.NewLocal(4, 0), 0, 2, 5, 0)
	var want []BlobID
	for i := 0; i < 4; i++ {
		id, err := vm.CreateBlob(1, 128)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, id)
	}
	got := vm.Blobs(1)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Blobs = %v, want %v", got, want)
	}
}

// TestServiceTimeQueuesRequests: with VMServiceTime set, concurrent
// RPCs to one shard serialize on its modeled processor; K requests
// arriving together take at least K*svc of virtual time to clear.
func TestServiceTimeQueuesRequests(t *testing.T) {
	const svc = 10 * time.Millisecond
	eng := sim.NewEngine()
	net := simnet.New(eng, simnet.Grid5000(4))
	env := cluster.NewSim(net)
	vm := NewVersionManagerShard(env, 0, 0, 1, svc)
	var elapsed time.Duration
	eng.Go(func() {
		id, err := vm.CreateBlob(1, 128)
		if err != nil {
			t.Error(err)
			return
		}
		start := env.Now()
		wg := env.NewWaitGroup()
		for i := 0; i < 4; i++ {
			wg.Go(func() {
				if _, err := vm.PageSize(1, id); err != nil {
					t.Error(err)
				}
			})
		}
		wg.Wait()
		elapsed = env.Now() - start
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if elapsed < 4*svc {
		t.Fatalf("4 concurrent RPCs cleared in %v, want >= %v of modeled occupancy", elapsed, 4*svc)
	}
}
