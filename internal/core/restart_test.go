package core

import (
	"bytes"
	"testing"

	"repro/internal/cluster"
)

// TestRestartProviderRecovery kills and reopens every provider inside a
// live deployment and asserts the page index comes back from the
// backend: the restarted fleet serves the published data through the
// ordinary client read path, cold (from disk).
func TestRestartProviderRecovery(t *testing.T) {
	env := cluster.NewLocal(4, 0)
	d, err := NewDeployment(env, Options{
		PageSize:      64,
		ProviderNodes: []cluster.NodeID{1, 2},
		Provider:      ProviderConfig{Store: "disk:" + t.TempDir()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	c := d.NewClient(0)
	blob, _ := c.CreateBlob(0)
	data := bytes.Repeat([]byte("durable!"), 32) // 4 pages
	if _, err := blob.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	var pages int
	for _, p := range d.ProviderList() {
		if err := p.FlushNow(); err != nil {
			t.Fatal(err)
		}
		pages += p.Store().Stats().Entries
	}
	if pages == 0 {
		t.Fatal("no pages stored")
	}

	var recovered int
	for _, node := range []cluster.NodeID{1, 2} {
		n, err := d.RestartProvider(node)
		if err != nil {
			t.Fatalf("restart node %d: %v", node, err)
		}
		recovered += n
	}
	if recovered != pages {
		t.Fatalf("recovered %d pages, stored %d", recovered, pages)
	}
	for _, p := range d.ProviderList() {
		if st := p.Store().Stats(); st.MemBytes != 0 {
			t.Fatalf("node %d: restarted store has %d resident bytes, want 0 (cold)", p.Node(), st.MemBytes)
		}
	}

	buf := make([]byte, len(data))
	if _, err := blob.ReadAt(buf, 0); err != nil {
		t.Fatalf("read after restart: %v", err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatalf("read after restart corrupted: %q", buf[:16])
	}
}

// TestRestartProviderWithoutBackend: a RAM-only provider restarts empty
// and the error surface is sane.
func TestRestartProviderWithoutBackend(t *testing.T) {
	env := cluster.NewLocal(4, 0)
	d, err := NewDeployment(env, Options{
		PageSize:      64,
		ProviderNodes: []cluster.NodeID{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	c := d.NewClient(0)
	blob, _ := c.CreateBlob(0)
	if _, err := blob.WriteAt([]byte("volatile"), 0); err != nil {
		t.Fatal(err)
	}
	n, err := d.RestartProvider(1)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("RAM-only restart recovered %d pages, want 0", n)
	}
	buf := make([]byte, 8)
	if _, err := blob.ReadAt(buf, 0); err == nil {
		t.Fatal("read of lost pages succeeded")
	}
	if _, err := d.RestartProvider(99); err == nil {
		t.Fatal("restart of a node with no provider succeeded")
	}
}
