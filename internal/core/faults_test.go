package core

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/cluster"
	"repro/internal/placement"
)

// TestMetadataReplicationSurvivesMetaServerFailure: with DHT
// replication, reads keep working after metadata providers fail — the
// fault tolerance BlobSeer attributes to its metadata layer.
func TestMetadataReplicationSurvivesMetaServerFailure(t *testing.T) {
	env := cluster.NewLocal(10, 5)
	provs := []cluster.NodeID{1, 2, 3, 4}
	meta := []cluster.NodeID{5, 6, 7, 8}
	d, err := NewDeployment(env, Options{
		PageSize:        64,
		ProviderNodes:   provs,
		MetaNodes:       meta,
		metaReplication: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	c := d.NewClient(0)
	blob, _ := c.CreateBlob(0)
	data := bytes.Repeat([]byte("meta-resilience"), 50)
	if _, err := blob.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}

	// Kill two of the four metadata servers.
	d.Meta.Server(5).SetDown(true)
	d.Meta.Server(7).SetDown(true)

	// A fresh client (empty metadata cache) must still resolve the
	// whole tree through surviving replicas.
	b2 := openB(t, d.NewClient(2), blob.ID())
	buf := make([]byte, len(data))
	if _, err := b2.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("content mismatch after metadata server failures")
	}

	// New writes also continue (puts go to surviving replicas), issued
	// through the fresh-cache client to keep the failover coverage.
	if _, _, err := b2.Append(Blocks([]byte("more"))); err != nil {
		t.Fatal(err)
	}
}

// TestUnreplicatedMetadataFailsLoudly: without replication, losing the
// responsible metadata server surfaces as an error, not silent zeros.
func TestUnreplicatedMetadataFailsLoudly(t *testing.T) {
	env := cluster.NewLocal(8, 4)
	d, err := NewDeployment(env, Options{
		PageSize:        64,
		ProviderNodes:   []cluster.NodeID{1, 2},
		MetaNodes:       []cluster.NodeID{3},
		metaReplication: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	c := d.NewClient(0)
	blob, _ := c.CreateBlob(0)
	blob.WriteAt([]byte("fragile"), 0)
	d.Meta.Server(3).SetDown(true)
	b2 := openB(t, d.NewClient(1), blob.ID()) // fresh cache
	if _, err := b2.ReadAt(make([]byte, 7), 0); err == nil {
		t.Fatal("read succeeded with the only metadata server down")
	}
}

// TestWriteAbortsWhenProviderDiesBeforePublish: a provider failing
// between the placement decision and the page scatter aborts the
// write's version; the previous snapshot stays the readable latest,
// and later writes proceed past the tombstone.
func TestWriteAbortsWhenProviderDiesBeforePublish(t *testing.T) {
	env := cluster.NewLocal(8, 4)
	// Pin round-robin striping (local-first from node 0, which hosts no
	// provider): the test scripts which provider each page of each
	// write lands on.
	provs := []cluster.NodeID{1, 2, 3}
	d, err := NewDeployment(env, Options{
		PageSize:      64,
		ProviderNodes: provs,
		Strategy:      placement.NewLocalFirst(provs),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	c := d.NewClient(0)
	blob, _ := c.CreateBlob(0)
	seed := bytes.Repeat([]byte{0x11}, 64)
	v1, err := blob.WriteAt(seed, 0)
	if err != nil {
		t.Fatal(err)
	}

	// The next 3-page write stripes over providers 2, 3, 1; kill 3 so
	// the scatter fails partway through.
	d.Provider(3).SetDown(true)
	_, err = blob.WriteAt(bytes.Repeat([]byte{0x22}, 192), 0)
	if !errors.Is(err, ErrProviderDown) {
		t.Fatalf("write with a dead provider returned %v, want ErrProviderDown", err)
	}

	// The aborted version never becomes visible.
	latest, size, err := blob.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if latest != v1 || size != int64(len(seed)) {
		t.Fatalf("latest = v%d size %d after abort, want v%d size %d", latest, size, v1, len(seed))
	}
	buf := make([]byte, len(seed))
	if _, err := blob.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, seed) {
		t.Fatal("latest content changed after aborted write")
	}

	// Once the provider recovers, writes continue past the tombstone.
	d.Provider(3).SetDown(false)
	after := bytes.Repeat([]byte{0x33}, 192)
	v3, err := blob.WriteAt(after, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v3 <= v1+1 {
		t.Fatalf("post-abort write got v%d, want a version past the tombstoned v%d", v3, v1+1)
	}
	buf = make([]byte, len(after))
	if _, err := blob.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, after) {
		t.Fatal("content mismatch after post-abort write")
	}
}

// TestDegradedReadSurvivesProviderFailure: with Replication 2, killing
// one provider after the write leaves every page a surviving replica,
// and a fresh client's read is byte-identical (no zeros, no error).
func TestDegradedReadSurvivesProviderFailure(t *testing.T) {
	env := cluster.NewLocal(10, 5)
	d, err := NewDeployment(env, Options{
		PageSize:      64,
		Replication:   2,
		ProviderNodes: []cluster.NodeID{1, 2, 3, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	c := d.NewClient(0)
	blob, _ := c.CreateBlob(0)
	data := bytes.Repeat([]byte("degraded-read-survives!"), 30)
	if _, err := blob.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}

	d.Provider(2).SetDown(true)

	b2 := openB(t, d.NewClient(5), blob.ID()) // fresh metadata cache
	buf := make([]byte, len(data))
	if _, err := b2.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("content mismatch reading through surviving replicas")
	}

	// The same client, with the leaf already cached, also fails over
	// when a second provider dies between its reads (mid-read churn).
	d.Provider(4).SetDown(true)
	if _, err := b2.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("content mismatch after second provider failure")
	}
}

// TestAllReplicasDownIsTypedError: when every replica of a page is
// unreachable the read fails with ErrAllReplicasDown — not zeros, not
// a generic fetch error.
func TestAllReplicasDownIsTypedError(t *testing.T) {
	env := cluster.NewLocal(10, 5)
	d, err := NewDeployment(env, Options{
		PageSize:      64,
		Replication:   2,
		ProviderNodes: []cluster.NodeID{1, 2, 3, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	c := d.NewClient(0)
	blob, _ := c.CreateBlob(0)
	data := bytes.Repeat([]byte{0xAB}, 512)
	if _, err := blob.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	for _, p := range d.ProviderList() {
		p.SetDown(true)
	}
	b2 := openB(t, d.NewClient(5), blob.ID())
	_, err = b2.ReadAt(make([]byte, len(data)), 0)
	if !errors.Is(err, ErrAllReplicasDown) {
		t.Fatalf("read with all providers down returned %v, want ErrAllReplicasDown", err)
	}
}

// TestPageReplicationEndToEndThroughSim runs replicated writes in the
// simulator and confirms both the extra traffic and the failover.
func TestPageReplicationEndToEndThroughSim(t *testing.T) {
	for _, repl := range []int{1, 3} {
		env := cluster.NewLocal(12, 6)
		provs := make([]cluster.NodeID, 8)
		for i := range provs {
			provs[i] = cluster.NodeID(i + 1)
		}
		d, err := NewDeployment(env, Options{PageSize: 128, ProviderNodes: provs, Replication: repl})
		if err != nil {
			t.Fatal(err)
		}
		c := d.NewClient(0)
		blob, _ := c.CreateBlob(0)
		data := bytes.Repeat([]byte{0xCD}, 1024)
		if _, err := blob.WriteAt(data, 0); err != nil {
			t.Fatal(err)
		}
		var stored int64
		for _, p := range d.ProviderList() {
			stored += p.BytesStored()
		}
		if want := int64(1024 * repl); stored != want {
			t.Fatalf("repl=%d: stored %d bytes, want %d", repl, stored, want)
		}
		d.Close()
	}
}
