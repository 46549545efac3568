package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// newLocalDeployment builds a small real-data deployment on a Local env.
func newLocalDeployment(t *testing.T, opts Options) *Deployment {
	t.Helper()
	env := cluster.NewLocal(8, 4)
	if opts.PageSize == 0 {
		opts.PageSize = 128
	}
	if len(opts.ProviderNodes) == 0 {
		opts.ProviderNodes = []cluster.NodeID{1, 2, 3, 4, 5}
	}
	d, err := NewDeployment(env, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

func TestWriteReadRoundTrip(t *testing.T) {
	d := newLocalDeployment(t, Options{})
	c := d.NewClient(0)
	blob, err := c.CreateBlob(0)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("hello, blobseer! this is a paper reproduction.")
	v, err := blob.WriteAt(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Fatalf("version = %d", v)
	}
	buf := make([]byte, len(data))
	n, err := blob.ReadAt(buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(data)) || !bytes.Equal(buf, data) {
		t.Fatalf("read %d bytes: %q", n, buf[:n])
	}
}

func TestMultiPageWrite(t *testing.T) {
	d := newLocalDeployment(t, Options{PageSize: 64})
	c := d.NewClient(0)
	blob, _ := c.CreateBlob(0)
	data := make([]byte, 1000)
	for i := range data {
		data[i] = byte(i % 251)
	}
	if _, err := blob.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1000)
	if _, err := blob.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("multi-page round trip mismatch")
	}
	// Sub-range read across page boundaries.
	sub := make([]byte, 200)
	n, err := blob.ReadAt(sub, 150)
	if err != nil || n != 200 {
		t.Fatalf("sub-read: %d, %v", n, err)
	}
	if !bytes.Equal(sub, data[150:350]) {
		t.Fatal("sub-range mismatch")
	}
}

// TestWriteDoesNotAliasCallerBlocks: a page-aligned write hands the
// providers slices of the caller's blocks, which the stores copy on
// ingest, so a block overwritten right after the call returns leaves
// the version it wrote intact.
func TestWriteDoesNotAliasCallerBlocks(t *testing.T) {
	d := newLocalDeployment(t, Options{PageSize: 64})
	blob, err := d.NewClient(0).CreateBlob(0)
	if err != nil {
		t.Fatal(err)
	}
	fill := func(n int, seed byte) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = seed + byte(i%251)
		}
		return b
	}
	read := func(v Version, n int) []byte {
		got := make([]byte, n)
		if _, err := blob.ReadAt(got, 0, AtVersion(v)); err != nil {
			t.Fatal(err)
		}
		return got
	}
	// Two blocks, the first of whole pages, the second ending mid-page.
	a, b := fill(256, 1), fill(100, 2)
	want := slices.Concat(a, b)
	vs, _, err := blob.Append(Blocks(a, b))
	if err != nil {
		t.Fatal(err)
	}
	clear(a)
	clear(b)
	// Two whole pages written over the middle of the blob.
	w := fill(128, 3)
	over := slices.Concat(want[:64], w, want[192:])
	v, err := blob.WriteAt(w, 64)
	if err != nil {
		t.Fatal(err)
	}
	clear(w)
	if got := read(vs[1], len(want)); !bytes.Equal(got, want) {
		t.Fatal("the appended version changed when the caller reused its blocks")
	}
	if got := read(v, len(over)); !bytes.Equal(got, over) {
		t.Fatal("the written version changed when the caller reused its block")
	}
}

func TestVersioningKeepsSnapshots(t *testing.T) {
	d := newLocalDeployment(t, Options{PageSize: 16})
	c := d.NewClient(0)
	blob, _ := c.CreateBlob(0)
	v1, _ := blob.WriteAt([]byte("AAAAAAAAAAAAAAAA"), 0) // one page
	v2, _ := blob.WriteAt([]byte("BBBBBBBB"), 0)         // overwrite first half
	if v1 != 1 || v2 != 2 {
		t.Fatalf("versions = %d, %d", v1, v2)
	}
	buf := make([]byte, 16)
	if _, err := blob.ReadAt(buf, 0, AtVersion(v1)); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "AAAAAAAAAAAAAAAA" {
		t.Fatalf("v1 = %q (old snapshot mutated!)", buf)
	}
	if _, err := blob.ReadAt(buf, 0, AtVersion(v2)); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "BBBBBBBBAAAAAAAA" {
		t.Fatalf("v2 = %q", buf)
	}
}

func TestUnalignedWriteReadModify(t *testing.T) {
	d := newLocalDeployment(t, Options{PageSize: 10})
	c := d.NewClient(0)
	blob, _ := c.CreateBlob(0)
	blob.WriteAt([]byte("0123456789abcdefghij"), 0) // 2 pages
	// Overwrite the middle, straddling the page boundary, unaligned.
	if _, err := blob.WriteAt([]byte("XYZW"), 7); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 20)
	blob.ReadAt(buf, 0)
	if string(buf) != "0123456XYZWbcdefghij" {
		t.Fatalf("merged = %q", buf)
	}
}

func TestAppendGrowsBlob(t *testing.T) {
	d := newLocalDeployment(t, Options{PageSize: 8})
	c := d.NewClient(0)
	blob, _ := c.CreateBlob(0)
	var want []byte
	for i := 0; i < 10; i++ {
		chunk := bytes.Repeat([]byte{byte('a' + i)}, 5)
		_, off, err := blob.Append(Blocks(chunk))
		if err != nil {
			t.Fatal(err)
		}
		if off != int64(len(want)) {
			t.Fatalf("append %d landed at %d, want %d", i, off, len(want))
		}
		want = append(want, chunk...)
	}
	_, size, _ := blob.Latest()
	if size != 50 {
		t.Fatalf("size = %d", size)
	}
	buf := make([]byte, 50)
	blob.ReadAt(buf, 0)
	if !bytes.Equal(buf, want) {
		t.Fatalf("appended content mismatch: %q", buf)
	}
}

func TestSparseWriteReadsZeros(t *testing.T) {
	d := newLocalDeployment(t, Options{PageSize: 10})
	c := d.NewClient(0)
	blob, _ := c.CreateBlob(0)
	blob.WriteAt([]byte("head"), 0)
	// Sparse write far past the end.
	if _, err := blob.WriteAt([]byte("tail"), 1000); err != nil {
		t.Fatal(err)
	}
	_, size, _ := blob.Latest()
	if size != 1004 {
		t.Fatalf("size = %d", size)
	}
	buf := make([]byte, 1004)
	n, err := blob.ReadAt(buf, 0)
	if err != nil || n != 1004 {
		t.Fatalf("read: %d, %v", n, err)
	}
	if string(buf[:4]) != "head" || string(buf[1000:]) != "tail" {
		t.Fatal("head/tail mismatch")
	}
	for i := 4; i < 1000; i++ {
		if buf[i] != 0 {
			t.Fatalf("hole byte %d = %d, want 0", i, buf[i])
		}
	}
}

func TestReadBeyondEOF(t *testing.T) {
	d := newLocalDeployment(t, Options{PageSize: 10})
	c := d.NewClient(0)
	blob, _ := c.CreateBlob(0)
	blob.WriteAt([]byte("12345"), 0)
	buf := make([]byte, 100)
	n, err := blob.ReadAt(buf, 0)
	if err != nil || n != 5 {
		t.Fatalf("short read: %d, %v", n, err)
	}
	n, err = blob.ReadAt(buf, 99)
	if err != nil || n != 0 {
		t.Fatalf("past-EOF read: %d, %v", n, err)
	}
}

func TestEmptyBlobRead(t *testing.T) {
	d := newLocalDeployment(t, Options{})
	c := d.NewClient(0)
	blob, _ := c.CreateBlob(0)
	n, err := blob.ReadAt(make([]byte, 10), 0)
	if err != nil || n != 0 {
		t.Fatalf("empty read: %d, %v", n, err)
	}
}

func TestReplicatedPagesSurviveProviderFailure(t *testing.T) {
	d := newLocalDeployment(t, Options{Replication: 3, PageSize: 32})
	c := d.NewClient(0)
	blob, _ := c.CreateBlob(0)
	data := bytes.Repeat([]byte("xyz"), 100)
	if _, err := blob.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	// Take down two of the five providers.
	d.Provider(1).SetDown(true)
	d.Provider(3).SetDown(true)
	buf := make([]byte, len(data))
	if _, err := blob.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("replicated read mismatch")
	}
}

func TestWriteFailureAbortsVersion(t *testing.T) {
	d := newLocalDeployment(t, Options{PageSize: 32, ProviderNodes: []cluster.NodeID{1}})
	c := d.NewClient(0)
	blob, _ := c.CreateBlob(0)
	blob.WriteAt([]byte("first"), 0)
	d.Provider(1).SetDown(true)
	if _, err := blob.WriteAt([]byte("second"), 0); !errors.Is(err, ErrProviderDown) {
		t.Fatalf("err = %v", err)
	}
	d.Provider(1).SetDown(false)
	// The failed version must not be visible; a new write proceeds.
	v, _, err := blob.Latest()
	if err != nil || v != 1 {
		t.Fatalf("Latest = %d, %v", v, err)
	}
	if _, err := blob.WriteAt([]byte("third"), 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	blob.ReadAt(buf, 0)
	if string(buf) != "third" {
		t.Fatalf("content = %q", buf)
	}
}

func TestSyntheticWriteRead(t *testing.T) {
	d := newLocalDeployment(t, Options{PageSize: 1 << 10})
	c := d.NewClient(0)
	blob, _ := c.CreateBlob(0)
	v, err := blob.WriteAt(nil, 0, Synthetic(10<<10))
	if err != nil || v != 1 {
		t.Fatalf("synthetic write: %d, %v", v, err)
	}
	n, err := blob.ReadAt(nil, 0, Synthetic(10<<10))
	if err != nil || n != 10<<10 {
		t.Fatalf("synthetic read: %d, %v", n, err)
	}
	// Asking for real bytes from synthetic pages fails loudly.
	if _, err := blob.ReadAt(make([]byte, 16), 0); !errors.Is(err, ErrSynthetic) {
		t.Fatalf("err = %v, want ErrSynthetic", err)
	}
}

func TestPageLocationsExposeDistribution(t *testing.T) {
	// Pin round-robin striping: the test asserts the exact page
	// distribution.
	provs := []cluster.NodeID{1, 2, 3, 4, 5}
	d := newLocalDeployment(t, Options{PageSize: 100, Strategy: &roundRobin{provs: provs}})
	c := d.NewClient(0)
	blob, _ := c.CreateBlob(0)
	blob.WriteAt(nil, 0, Synthetic(1000)) // 10 pages over 5 providers
	locs, err := blob.Locations(0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(locs) != 10 {
		t.Fatalf("%d locations", len(locs))
	}
	seen := map[cluster.NodeID]int{}
	for _, l := range locs {
		if len(l.Providers) != 1 {
			t.Fatalf("page %d has %d providers", l.Page, len(l.Providers))
		}
		seen[l.Providers[0]]++
	}
	// Round-robin striping: every provider holds exactly 2 pages.
	if len(seen) != 5 {
		t.Fatalf("pages spread over %d providers, want 5", len(seen))
	}
	for n, c := range seen {
		if c != 2 {
			t.Fatalf("provider %d holds %d pages, want 2", n, c)
		}
	}
}

func TestConcurrentWritersDifferentBlobsSim(t *testing.T) {
	// 20 concurrent writers, each its own blob, in the simulator. All
	// writes must publish and read back consistently.
	eng := sim.NewEngine()
	net := simnet.New(eng, simnet.Grid5000(30))
	env := cluster.NewSim(net)
	provs := make([]cluster.NodeID, 29)
	for i := range provs {
		provs[i] = cluster.NodeID(i + 1)
	}
	d, err := NewDeployment(env, Options{PageSize: 256 << 10, ProviderNodes: provs})
	if err != nil {
		t.Fatal(err)
	}
	const writers = 20
	const perWriter = 16 << 20
	eng.Go(func() {
		wg := env.NewWaitGroup()
		for w := 0; w < writers; w++ {
			node := cluster.NodeID(w % 30)
			wg.Go(func() {
				c := d.NewClient(node)
				blob, err := c.CreateBlob(0)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := blob.WriteAt(nil, 0, Synthetic(perWriter)); err != nil {
					t.Error(err)
					return
				}
				n, err := blob.ReadAt(nil, 0, Synthetic(perWriter))
				if err != nil || n != perWriter {
					t.Errorf("read back %d, %v", n, err)
				}
			})
		}
		wg.Wait()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if env.Now() == 0 {
		t.Fatal("no virtual time elapsed; flows not charged")
	}
}

func TestConcurrentAppendersSameBlobSim(t *testing.T) {
	// The paper's §V future-work feature: concurrent appends to one
	// blob. Total size must equal the sum of appends and every region
	// must be intact.
	eng := sim.NewEngine()
	net := simnet.New(eng, simnet.Grid5000(20))
	env := cluster.NewSim(net)
	provs := []cluster.NodeID{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	d, err := NewDeployment(env, Options{PageSize: 64 << 10, ProviderNodes: provs})
	if err != nil {
		t.Fatal(err)
	}
	const appenders = 10
	const chunk = 1 << 20
	offsets := make([]int64, appenders)
	eng.Go(func() {
		c0 := d.NewClient(0)
		blob, err := c0.CreateBlob(0)
		if err != nil {
			t.Error(err)
			return
		}
		wg := env.NewWaitGroup()
		for a := 0; a < appenders; a++ {
			node := cluster.NodeID(a + 1)
			wg.Go(func() {
				c := d.NewClient(node)
				bh, err := c.OpenBlob(blob.ID())
				if err != nil {
					t.Error(err)
					return
				}
				_, off, err := bh.Append(SyntheticBlocks(chunk))
				if err != nil {
					t.Error(err)
					return
				}
				offsets[a] = off
			})
		}
		wg.Wait()
		v, size, err := blob.Latest()
		if err != nil || size != appenders*chunk {
			t.Errorf("final size = %d (v%d), %v", size, v, err)
		}
		if n, err := blob.ReadAt(nil, 0, Synthetic(size)); err != nil || n != size {
			t.Errorf("full read: %d, %v", n, err)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// Offsets must tile [0, appenders*chunk) exactly.
	seen := map[int64]bool{}
	for _, off := range offsets {
		if off%chunk != 0 || seen[off] {
			t.Fatalf("offsets not a disjoint tiling: %v", offsets)
		}
		seen[off] = true
	}
}

func TestRandomizedReadWriteAgainstFlatFile(t *testing.T) {
	// Property test: a sequence of random writes/appends against the
	// real deployment must read identically to a flat byte slice.
	d := newLocalDeployment(t, Options{PageSize: 32})
	c := d.NewClient(0)
	rng := rand.New(rand.NewSource(99))
	blob, _ := c.CreateBlob(0)
	var ref []byte
	for i := 0; i < 60; i++ {
		length := 1 + rng.Intn(200)
		data := make([]byte, length)
		rng.Read(data)
		if rng.Intn(2) == 0 && len(ref) > 0 {
			off := rng.Intn(len(ref))
			if _, err := blob.WriteAt(data, int64(off)); err != nil {
				t.Fatal(err)
			}
			if off+length > len(ref) {
				ref = append(ref, make([]byte, off+length-len(ref))...)
			}
			copy(ref[off:], data)
		} else {
			if _, _, err := blob.Append(Blocks(data)); err != nil {
				t.Fatal(err)
			}
			ref = append(ref, data...)
		}
	}
	_, size, _ := blob.Latest()
	if size != int64(len(ref)) {
		t.Fatalf("size = %d, want %d", size, len(ref))
	}
	got := make([]byte, len(ref))
	if _, err := blob.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref) {
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("first mismatch at byte %d of %d", i, len(ref))
			}
		}
	}
	// Random sub-range reads.
	for i := 0; i < 20; i++ {
		off := rng.Intn(len(ref))
		l := 1 + rng.Intn(len(ref)-off)
		sub := make([]byte, l)
		n, err := blob.ReadAt(sub, int64(off))
		if err != nil || n != int64(l) {
			t.Fatalf("sub-read %d+%d: %d, %v", off, l, n, err)
		}
		if !bytes.Equal(sub, ref[off:off+l]) {
			t.Fatalf("sub-range [%d,%d) mismatch", off, off+l)
		}
	}
}

func TestDeploymentValidation(t *testing.T) {
	env := cluster.NewLocal(4, 0)
	if _, err := NewDeployment(env, Options{}); err == nil {
		t.Fatal("deployment without providers accepted")
	}
}

func TestClientInfoUnknownBlob(t *testing.T) {
	d := newLocalDeployment(t, Options{})
	c := d.NewClient(0)
	if _, err := c.OpenBlob(404); !errors.Is(err, ErrNoSuchBlob) {
		t.Fatalf("err = %v", err)
	}
}

func TestPersistentProviderRecovery(t *testing.T) {
	dir := t.TempDir()
	env := cluster.NewLocal(4, 0)
	opts := Options{
		PageSize:      64,
		ProviderNodes: []cluster.NodeID{1, 2},
		Provider:      ProviderConfig{Store: "disk:" + dir},
	}
	d, err := NewDeployment(env, opts)
	if err != nil {
		t.Fatal(err)
	}
	c := d.NewClient(0)
	blob, _ := c.CreateBlob(0)
	data := []byte(fmt.Sprintf("durable-%d", 42))
	blob.WriteAt(data, 0)
	for _, p := range d.ProviderList() {
		if err := p.FlushNow(); err != nil {
			t.Fatal(err)
		}
	}
	d.Close()

	// Reopen providers over the same directories; the pages must come
	// back from the write-ahead logs.
	d2, err := NewDeployment(env, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	d2.VM = d.VM // version metadata is the VM's (not persisted here)
	d2.Meta = d.Meta
	c2 := d2.NewClient(0)
	c2.pageSizes = map[BlobID]int64{}
	b2 := openB(t, c2, blob.ID())
	buf := make([]byte, len(data))
	if _, err := b2.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatalf("recovered %q", buf)
	}
}
