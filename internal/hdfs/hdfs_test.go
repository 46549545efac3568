package hdfs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fsapi"
)

func newTestFS(t *testing.T, cfg Config) (*Deployment, *FS) {
	t.Helper()
	env := cluster.NewLocal(8, 4)
	if len(cfg.DataNodes) == 0 {
		cfg.DataNodes = []cluster.NodeID{1, 2, 3, 4, 5, 6}
	}
	if cfg.ChunkSize == 0 {
		cfg.ChunkSize = 256
	}
	cfg.WriteThrough = true
	d, err := NewDeployment(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d, d.NewFS(1) // client colocated with a datanode
}

func TestWriteReadRoundTrip(t *testing.T) {
	_, fs := newTestFS(t, Config{})
	data := make([]byte, 1000)
	rand.New(rand.NewSource(1)).Read(data)
	w, err := fs.Create("/f")
	if err != nil {
		t.Fatal(err)
	}
	w.Write(data)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := fs.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, err := io.ReadAll(r)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("round trip: %d bytes, %v", len(got), err)
	}
	if r.Size() != 1000 {
		t.Fatalf("Size = %d", r.Size())
	}
}

func TestWriteOnceSemantics(t *testing.T) {
	_, fs := newTestFS(t, Config{})
	w, _ := fs.Create("/once")
	w.Write([]byte("data"))
	w.Close()
	// Re-creating fails: single writer, write-once (§II.C).
	if _, err := fs.Create("/once"); !errors.Is(err, ErrSingleWriter) {
		t.Fatalf("recreate: %v", err)
	}
	// Appends are not supported at all.
	if _, err := fs.Append("/once"); !errors.Is(err, fsapi.ErrNotSupported) {
		t.Fatalf("append: %v", err)
	}
}

func TestOpenBeforeCloseFails(t *testing.T) {
	_, fs := newTestFS(t, Config{})
	w, _ := fs.Create("/pending")
	w.Write([]byte("x"))
	if _, err := fs.Open("/pending"); !errors.Is(err, ErrNotClosed) {
		t.Fatalf("open before close: %v", err)
	}
	w.Close()
	if _, err := fs.Open("/pending"); err != nil {
		t.Fatalf("open after close: %v", err)
	}
}

func TestChunking(t *testing.T) {
	d, fs := newTestFS(t, Config{ChunkSize: 256})
	data := make([]byte, 1000) // 3 full chunks + 232 tail
	rand.New(rand.NewSource(2)).Read(data)
	w, _ := fs.Create("/chunked")
	w.Write(data)
	w.Close()
	meta, err := fs.fileMeta("/chunked")
	if err != nil {
		t.Fatal(err)
	}
	if len(meta.chunks) != 4 {
		t.Fatalf("%d chunks, want 4", len(meta.chunks))
	}
	if meta.chunks[3].size != 232 {
		t.Fatalf("tail chunk size = %d", meta.chunks[3].size)
	}
	for _, c := range meta.chunks {
		if len(c.locs) != d.cfg.Replication {
			t.Fatalf("chunk has %d replicas, want %d", len(c.locs), d.cfg.Replication)
		}
	}
	// Sub-range read across chunk boundaries.
	buf := make([]byte, 300)
	r, _ := fs.Open("/chunked")
	defer r.Close()
	n, err := r.ReadAt(buf, 200)
	if err != nil || n != 300 {
		t.Fatalf("ReadAt: %d, %v", n, err)
	}
	if !bytes.Equal(buf, data[200:500]) {
		t.Fatal("cross-chunk read mismatch")
	}
}

func TestLocalFirstPlacement(t *testing.T) {
	d, fs := newTestFS(t, Config{ChunkSize: 128, Replication: 3})
	w, _ := fs.Create("/local")
	w.Write(make([]byte, 512))
	w.Close()
	meta, _ := fs.fileMeta("/local")
	for _, c := range meta.chunks {
		// First replica on the writing client's node (1).
		if c.locs[0] != 1 {
			t.Fatalf("first replica on %d, want 1 (local)", c.locs[0])
		}
		// Second replica in the same rack as the first (nodes 0-3).
		if d.env.Rack(c.locs[1]) != d.env.Rack(c.locs[0]) {
			t.Fatalf("second replica rack %d != first rack", d.env.Rack(c.locs[1]))
		}
		// Third replica in a different rack.
		if d.env.Rack(c.locs[2]) == d.env.Rack(c.locs[0]) {
			t.Fatal("third replica in the same rack")
		}
	}
}

func TestRemoteClientPlacement(t *testing.T) {
	// A client not running a datanode gets a random first replica.
	d, _ := newTestFS(t, Config{})
	fs := d.NewFS(7) // node 7 is not a datanode
	w, _ := fs.Create("/remote")
	w.Write(make([]byte, 100))
	w.Close()
	meta, _ := fs.fileMeta("/remote")
	if meta.chunks[0].locs[0] == 7 {
		t.Fatal("first replica on non-datanode client")
	}
}

func TestReplicationOnDataNodes(t *testing.T) {
	d, fs := newTestFS(t, Config{ChunkSize: 1 << 20, Replication: 3})
	w, _ := fs.Create("/r3")
	w.Write([]byte("replicated"))
	w.Close()
	copies := 0
	for _, dn := range d.dns {
		copies += dn.store.Len()
	}
	if copies != 3 {
		t.Fatalf("%d chunk replicas stored, want 3", copies)
	}
}

func TestSyntheticFile(t *testing.T) {
	_, fs := newTestFS(t, Config{ChunkSize: 256})
	w, _ := fs.Create("/synth")
	if _, err := w.WriteSynthetic(1000); err != nil {
		t.Fatal(err)
	}
	w.Close()
	fi, _ := fs.Stat("/synth")
	if fi.Size != 1000 {
		t.Fatalf("size = %d", fi.Size)
	}
	r, _ := fs.Open("/synth")
	defer r.Close()
	n, err := r.ReadSyntheticAt(0, 1000)
	if err != nil || n != 1000 {
		t.Fatalf("synthetic read: %d, %v", n, err)
	}
	// Real read of synthetic chunks fails loudly.
	if _, err := r.ReadAt(make([]byte, 8), 0); err == nil {
		t.Fatal("real read of synthetic chunk succeeded")
	}
}

func TestBlockLocations(t *testing.T) {
	_, fs := newTestFS(t, Config{ChunkSize: 256, Replication: 2})
	w, _ := fs.Create("/loc")
	w.WriteSynthetic(600)
	w.Close()
	locs, err := fs.BlockLocations("/loc", 0, 600)
	if err != nil {
		t.Fatal(err)
	}
	if len(locs) != 3 {
		t.Fatalf("%d blocks", len(locs))
	}
	for _, l := range locs {
		if len(l.Hosts) != 2 {
			t.Fatalf("block hosts = %v", l.Hosts)
		}
	}
	// Range restriction.
	locs, _ = fs.BlockLocations("/loc", 256, 10)
	if len(locs) != 1 || locs[0].Offset != 256 {
		t.Fatalf("ranged locations = %+v", locs)
	}
}

func TestNamespaceOps(t *testing.T) {
	_, fs := newTestFS(t, Config{})
	w, _ := fs.Create("/a/f1")
	w.Write([]byte("1"))
	w.Close()
	fs.Mkdir("/b")
	if err := fs.Rename("/a/f1", "/b/f1"); err != nil {
		t.Fatal(err)
	}
	infos, _ := fs.List("/b")
	if len(infos) != 1 || infos[0].Path != "/b/f1" {
		t.Fatalf("List = %+v", infos)
	}
	if err := fs.Delete("/b/f1"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Open("/b/f1"); err == nil {
		t.Fatal("deleted file opened")
	}
}

func TestDeleteReleasesChunks(t *testing.T) {
	d, fs := newTestFS(t, Config{ChunkSize: 128, Replication: 1})
	w, _ := fs.Create("/temp")
	w.Write(make([]byte, 512))
	w.Close()
	stored := func() int {
		total := 0
		for _, dn := range d.dns {
			total += dn.store.Len()
		}
		return total
	}
	if stored() != 4 {
		t.Fatalf("stored = %d chunks", stored())
	}
	fs.Delete("/temp")
	if stored() != 0 {
		t.Fatalf("chunks leaked after delete: %d", stored())
	}
}

func TestSequentialReadStreamsChunks(t *testing.T) {
	_, fs := newTestFS(t, Config{ChunkSize: 100})
	data := make([]byte, 450)
	for i := range data {
		data[i] = byte(i % 13)
	}
	w, _ := fs.Create("/stream")
	w.Write(data)
	w.Close()
	r, _ := fs.Open("/stream")
	defer r.Close()
	got, err := io.ReadAll(r)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("stream read: %d bytes, %v", len(got), err)
	}
}

func TestEmptyFile(t *testing.T) {
	_, fs := newTestFS(t, Config{})
	w, _ := fs.Create("/empty")
	w.Close()
	r, err := fs.Open("/empty")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	n, err := r.Read(make([]byte, 8))
	if n != 0 || !errors.Is(err, io.EOF) {
		t.Fatalf("empty read: %d, %v", n, err)
	}
}

func TestDurableDataNodes(t *testing.T) {
	// Disk-backed datanodes log chunks to disk; a tight MemCapacity
	// forces evictions, so reads must come back through the log.
	d, fs := newTestFS(t, Config{
		ChunkSize:   256,
		MemCapacity: 512,
		Replication: 2,
		Store:       "disk:" + t.TempDir(),
	})
	defer d.Close()
	data := make([]byte, 4000)
	rand.New(rand.NewSource(7)).Read(data)
	w, err := fs.Create("/durable")
	if err != nil {
		t.Fatal(err)
	}
	w.Write(data)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var evicted uint64
	for _, dn := range d.dns {
		evicted += dn.store.Stats().Evictions
	}
	if evicted == 0 {
		t.Fatal("no chunk was evicted; MemCapacity too large to exercise the log")
	}
	r, err := fs.Open("/durable")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, err := io.ReadAll(r)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("durable round trip: %d bytes, %v", len(got), err)
	}
}

func TestDataNodeStoreSpecRecovery(t *testing.T) {
	// The backend-spec form of durable datanodes: chunks written under a
	// disk: spec survive a deployment restart — each datanode recovers
	// its chunk index from its scoped backend directory.
	cfg := Config{
		ChunkSize:   256,
		Replication: 2,
		Store:       "disk:" + t.TempDir(),
	}
	d, fs := newTestFS(t, cfg)
	data := make([]byte, 2000)
	rand.New(rand.NewSource(11)).Read(data)
	w, err := fs.Create("/persistent")
	if err != nil {
		t.Fatal(err)
	}
	w.Write(data)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var chunks int
	for _, dn := range d.dns {
		chunks += dn.store.Len()
	}
	if chunks == 0 {
		t.Fatal("no chunks stored")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := NewDeployment(d.env, d.cfg) // d.Cfg: with defaults filled
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	var recovered int
	for _, dn := range d2.dns {
		recovered += dn.store.Recovered()
	}
	if recovered != chunks {
		t.Fatalf("recovered %d chunks, stored %d", recovered, chunks)
	}
}

// TestChunkKeyMatchesSprintf pins the strconv rendering to the old
// format — store keys are persistent (WAL-backed deployments), so the
// representation must not drift.
func TestChunkKeyMatchesSprintf(t *testing.T) {
	for _, id := range []uint64{0, 1, 9, 10, 12345, 1<<63 + 7, ^uint64(0)} {
		if got, want := chunkKey(id), fmt.Sprintf("c/%d", id); got != want {
			t.Fatalf("chunkKey(%d) = %q, want %q", id, got, want)
		}
	}
}
