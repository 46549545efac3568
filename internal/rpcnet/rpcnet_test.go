package rpcnet

import (
	"bytes"
	"encoding/binary"
	"net"
	"testing"
	"time"

	"repro/internal/bsfs"
	"repro/internal/cluster"
	"repro/internal/core"
)

// startServer boots a Local-env BSFS deployment behind a TCP listener
// and returns a connected client.
func startServer(t *testing.T) *Client {
	return startShardedServer(t, 1)
}

// startShardedServer is startServer with a multi-shard version-manager
// tier (extra shards on their own nodes after the providers, matching
// bsfsd's -vm-shards layout).
func startShardedServer(t *testing.T, shards int) *Client {
	t.Helper()
	vmNodes := make([]cluster.NodeID, shards)
	for i := 1; i < shards; i++ {
		vmNodes[i] = cluster.NodeID(3 + i)
	}
	addr, _ := serve(t, core.Options{PageSize: 4 << 10, VMNodes: vmNodes}, bsfs.Config{BlockSize: 64 << 10})
	return dialTest(t, addr)
}

// serve boots a Local-env deployment with three providers behind a TCP
// listener and returns its address.
func serve(t testing.TB, opts core.Options, cfg bsfs.Config) (string, *core.Deployment) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return l.Addr().String(), serveOn(t, l, opts, cfg)
}

// serveOn is serve behind a listener of the test's own making.
func serveOn(t testing.TB, l net.Listener, opts core.Options, cfg bsfs.Config) *core.Deployment {
	t.Helper()
	t.Cleanup(func() { l.Close() })
	opts.ProviderNodes = []cluster.NodeID{1, 2, 3}
	dep, err := core.NewDeployment(cluster.NewLocal(3+max(len(opts.VMNodes), 1), 0), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dep.Close() })
	go Serve(l, NewService(bsfs.NewService(dep, cfg).NewFS(0)))
	return dep
}

func dialTest(t testing.TB, addr string) *Client {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestPutGetRoundTrip(t *testing.T) {
	c := startServer(t)
	data := bytes.Repeat([]byte("wire-data-"), 1000)
	if err := c.Put("/remote/file", data); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get("/remote/file", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("round trip: %d bytes", len(got))
	}
}

func TestLargeFileChunkedTransfer(t *testing.T) {
	c := startServer(t)
	data := make([]byte, 9<<20) // 144 reader blocks, one data frame each
	for i := range data {
		data[i] = byte(i * 31)
	}
	if err := c.Put("/big", data); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get("/big", 0)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("large transfer: %d bytes, %v", len(got), err)
	}
}

func TestAppendAndVersions(t *testing.T) {
	c := startServer(t)
	if err := c.Put("/log", []byte("v1|")); err != nil {
		t.Fatal(err)
	}
	if err := c.Append("/log", []byte("v2|")); err != nil {
		t.Fatal(err)
	}
	got, _ := c.Get("/log", 0)
	if string(got) != "v1|v2|" {
		t.Fatalf("appended = %q", got)
	}
	versions, err := c.Versions("/log")
	if err != nil || len(versions) != 2 {
		t.Fatalf("versions = %v, %v", versions, err)
	}
	// Reading the first snapshot shows only the first write.
	old, err := c.Get("/log", versions[0])
	if err != nil || string(old) != "v1|" {
		t.Fatalf("snapshot read = %q, %v", old, err)
	}
}

func TestNamespaceOverWire(t *testing.T) {
	c := startServer(t)
	c.Put("/a/x", []byte("1"))
	c.Put("/a/y", []byte("22"))
	if err := c.Mkdir("/b"); err != nil {
		t.Fatal(err)
	}
	entries, err := c.List("/a")
	if err != nil || len(entries) != 2 {
		t.Fatalf("List = %v, %v", entries, err)
	}
	st, err := c.Stat("/a/y")
	if err != nil || st.Size != 2 {
		t.Fatalf("Stat = %+v, %v", st, err)
	}
	if err := c.Rename("/a/x", "/b/x"); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete("/a/y"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stat("/a/y"); err == nil {
		t.Fatal("deleted file still visible")
	}
	got, _ := c.Get("/b/x", 0)
	if string(got) != "1" {
		t.Fatalf("moved file = %q", got)
	}
}

func TestRangeRead(t *testing.T) {
	c := startServer(t)
	c.Put("/r", []byte("0123456789"))
	got, err := c.readRange("/r", 0, 3, 4)
	if err != nil || string(got) != "3456" {
		t.Fatalf("range = %q, %v", got, err)
	}
}

func TestErrorsPropagate(t *testing.T) {
	c := startServer(t)
	if _, err := c.Get("/missing", 0); err == nil {
		t.Fatal("missing file read succeeded")
	}
	if err := c.Append("/missing", []byte("x")); err == nil {
		t.Fatal("append to missing file succeeded")
	}
	// A range over many reader blocks streams as one data frame each.
	const wide = 4 << 20
	if _, err := c.readRange("/missing", 0, 0, wide+1); err == nil {
		t.Fatal("oversized read of a missing file succeeded")
	}
	data := bytes.Repeat([]byte{7}, wide+4097)
	if err := c.Put("/wide", data); err != nil {
		t.Fatal(err)
	}
	if got, err := c.readRange("/wide", 0, 1, wide+4096); err != nil || !bytes.Equal(got, data[1:]) {
		t.Fatalf("oversized read: %d bytes, %v", len(got), err)
	}
	if _, err := c.readRange("/wide", 0, -1, 1); err == nil {
		t.Fatal("negative offset accepted")
	}
}

func TestEmptyFile(t *testing.T) {
	c := startServer(t)
	if err := c.Put("/empty", nil); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get("/empty", 0)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty get = %v, %v", got, err)
	}
}

// TestShardsOverWire drives the shard-aware service surface against a
// 2-shard server: the tier topology comes back, files resolve to their
// owning shards (id mod count), consecutive files spread over both
// shards, and data written through the sharded tier reads back intact.
func TestShardsOverWire(t *testing.T) {
	c := startShardedServer(t, 2)
	sr, err := c.Shards("")
	if err != nil {
		t.Fatal(err)
	}
	if sr.Count != 2 || len(sr.Nodes) != 2 {
		t.Fatalf("tier = %+v, want 2 shards", sr)
	}
	seen := map[int]bool{}
	for i := 0; i < 4; i++ {
		path := "/sharded/f" + string(rune('0'+i))
		payload := bytes.Repeat([]byte{byte('A' + i)}, 5000)
		if err := c.Put(path, payload); err != nil {
			t.Fatal(err)
		}
		fr, err := c.Shards(path)
		if err != nil {
			t.Fatal(err)
		}
		if fr.Blob == 0 || int(fr.Blob%uint64(fr.Count)) != fr.Shard {
			t.Fatalf("file %s: blob %d reported on shard %d (count %d)", path, fr.Blob, fr.Shard, fr.Count)
		}
		seen[fr.Shard] = true
		got, err := c.Get(path, 0)
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("file %s: round trip failed (%v)", path, err)
		}
	}
	if len(seen) != 2 {
		t.Fatalf("4 files landed on %d shard(s), want both", len(seen))
	}
	if _, err := c.Shards("/missing"); err == nil {
		t.Fatal("shard lookup of a missing file succeeded")
	}
}

// TestMembershipOverWire drives the fleet-management surface: the
// providers listing reflects health and epoch, join auto-allocates a
// node, drain and leave walk a provider out of the fleet, and data
// written before the churn stays readable after it.
func TestMembershipOverWire(t *testing.T) {
	c := startServer(t)
	data := bytes.Repeat([]byte("churn-"), 2000)
	if err := c.Put("/m/f", data); err != nil {
		t.Fatal(err)
	}

	pr, err := c.Providers()
	if err != nil {
		t.Fatal(err)
	}
	if len(pr.Providers) != 3 {
		t.Fatalf("fleet = %d providers, want 3", len(pr.Providers))
	}
	var stored int64
	for _, p := range pr.Providers {
		if p.Health != "up" {
			t.Fatalf("node %d health %q, want up", p.Node, p.Health)
		}
		stored += p.Stored
	}
	if stored < int64(len(data)) {
		t.Fatalf("fleet stored %d bytes, want >= %d", stored, len(data))
	}

	// Join with auto-allocation: the new node lands past the fleet.
	nr, err := c.Join(0)
	if err != nil {
		t.Fatal(err)
	}
	if nr.Node != 4 || nr.Epoch != pr.Epoch+1 {
		t.Fatalf("join = %+v, want node 4 at epoch %d", nr, pr.Epoch+1)
	}
	if _, err := c.Join(nr.Node); err == nil {
		t.Fatal("duplicate join succeeded")
	}

	// Drain, then leave: the listing tracks each transition.
	if _, err := c.Drain(nr.Node); err != nil {
		t.Fatal(err)
	}
	pr, err = c.Providers()
	if err != nil {
		t.Fatal(err)
	}
	health := map[uint64]string{}
	for _, p := range pr.Providers {
		health[p.Node] = p.Health
	}
	if health[nr.Node] != "draining" {
		t.Fatalf("drained node health = %q", health[nr.Node])
	}
	if _, err := c.Leave(nr.Node); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Leave(99); err == nil {
		t.Fatal("leave of a non-member succeeded")
	}
	pr, _ = c.Providers()
	if len(pr.Providers) != 3 {
		t.Fatalf("fleet = %d providers after leave, want 3", len(pr.Providers))
	}

	got, err := c.Get("/m/f", 0)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after churn: %d bytes, %v", len(got), err)
	}
}

// TestSweepErrorOverWire: a failing background placement sweep is
// visible in the providers reply, not silent. The first sweep runs only
// after the file is written and every metadata server is down, so its
// walk of the file's tree, which no sweep has cached yet, fails; once
// the servers are back, a sweep completes, clears the error and reports
// what it scanned.
func TestSweepErrorOverWire(t *testing.T) {
	addr, dep := serve(t, core.Options{PageSize: 4 << 10, PlacementInterval: 500 * time.Millisecond}, bsfs.Config{BlockSize: 64 << 10})
	c := dialTest(t, addr)
	if err := c.Put("/s/f", bytes.Repeat([]byte("sweep-"), 50000)); err != nil { // 74 pages
		t.Fatal(err)
	}
	setMetaDown := func(down bool) {
		for _, n := range dep.Opts.MetaNodes {
			dep.Meta.Server(n).SetDown(down)
		}
	}
	waitSweep := func(what string, ok func(ProvidersReply) bool) ProvidersReply {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			pr, err := c.Providers()
			if err != nil {
				t.Fatal(err)
			}
			if ok(pr) {
				return pr
			}
		}
		pr, _ := c.Providers()
		t.Fatalf("no sweep %s within 10s: %+v", what, pr)
		return ProvidersReply{}
	}

	setMetaDown(true)
	if pr, err := c.Providers(); err != nil || pr.LastSweep != (core.RepairStats{}) || pr.SweepError != "" {
		t.Fatalf("a sweep ran before the metadata tier went down: %+v, %v", pr, err)
	}
	pr := waitSweep("error", func(pr ProvidersReply) bool { return pr.SweepError != "" })
	t.Logf("sweep error over the wire: %s", pr.SweepError)

	setMetaDown(false)
	pr = waitSweep("recovery", func(pr ProvidersReply) bool { return pr.SweepError == "" })
	if pr.LastSweep.PagesScanned != 74 {
		t.Fatalf("recovered sweep stats %+v, want all 74 pages scanned", pr.LastSweep)
	}
}

// TestReadAfterMigration: the server's one file-system client keeps the
// leaves it wrote in its metadata cache, and leaves keep the holders
// named at write time for ever. After a join, a background sweep
// migrates pages to the new provider and drops the old copies, so those
// leaves name holders that no longer have the pages. A read must still
// return the file: a page missing from its leaf's holders is found by
// probing the serving members.
func TestReadAfterMigration(t *testing.T) {
	addr, _ := serve(t, core.Options{PageSize: 4 << 10, PlacementInterval: time.Millisecond}, bsfs.Config{BlockSize: 64 << 10})
	c := dialTest(t, addr)
	data := bytes.Repeat([]byte("moved-"), 50000) // 74 pages
	if err := c.Put("/mig/f", data); err != nil {
		t.Fatal(err)
	}
	nr, err := c.Join(0)
	if err != nil {
		t.Fatal(err)
	}
	// A migrating sweep copies pages onto the new node, then drops the
	// old copies; the sweep after it reports no migration. So wait for
	// the fleet to hold one copy of each page again, some of them on the
	// new node.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		pr, err := c.Providers()
		if err != nil {
			t.Fatal(err)
		}
		total, joined := 0, 0
		for _, p := range pr.Providers {
			total += p.Entries
			if p.Node == nr.Node {
				joined = p.Entries
			}
		}
		if joined > 0 && total == 74 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no sweep migrated pages within 10s: %+v", pr)
		}
	}
	got, err := c.Get("/mig/f", 0)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after migration: %d bytes, %v", len(got), err)
	}
}

// TestWriteVecBatchedChunks drives a write exchange by hand: the header
// and a payload that arrives in many small pieces land as one file, in
// order, whatever the sizes of the writes that carried them.
func TestWriteVecBatchedChunks(t *testing.T) {
	addr, _ := serve(t, core.Options{PageSize: 4 << 10}, bsfs.Config{BlockSize: 64 << 10})
	conn := dialRaw(t, addr)
	var want []byte
	for i := 0; i < 5; i++ {
		want = append(want, bytes.Repeat([]byte{byte('a' + i)}, 1000+i)...)
	}
	if err := writeFrame(conn, header{Op: opWrite, Length: int64(len(want))}, "/vec/f", "", nil); err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(want); off += 700 {
		if _, err := conn.Write(want[off:min(off+700, len(want))]); err != nil {
			t.Fatal(err)
		}
	}
	var h header
	if err := binary.Read(conn, binary.LittleEndian, &h); err != nil || h.Op != opStatus || h.Code != 0 {
		t.Fatalf("write status = %+v, %v", h, err)
	}
	got, err := dialTest(t, addr).Get("/vec/f", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("pieced write round trip mismatch")
	}
}

// dialRaw opens a connection the test frames by hand.
func dialRaw(t testing.TB, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	return conn
}
