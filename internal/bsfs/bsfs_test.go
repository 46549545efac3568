package bsfs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fsapi"
	"repro/internal/sim"
	"repro/internal/simnet"
)

func newTestFS(t *testing.T, cfg Config) (*Service, *FS) {
	t.Helper()
	env := cluster.NewLocal(8, 4)
	dep, err := core.NewDeployment(env, core.Options{
		PageSize:      64,
		ProviderNodes: []cluster.NodeID{1, 2, 3, 4, 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dep.Close() })
	if cfg.BlockSize == 0 {
		cfg.BlockSize = 256 // 4 pages per block
	}
	svc := NewService(dep, cfg)
	return svc, svc.NewFS(0)
}

func writeFile(t *testing.T, fs fsapi.FileSystem, path string, data []byte) {
	t.Helper()
	w, err := fs.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func readFile(t *testing.T, fs fsapi.FileSystem, path string) []byte {
	t.Helper()
	r, err := fs.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	data, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestCreateWriteReadRoundTrip(t *testing.T) {
	_, fs := newTestFS(t, Config{})
	data := make([]byte, 1000)
	for i := range data {
		data[i] = byte(i)
	}
	writeFile(t, fs, "/data/file1", data)
	got := readFile(t, fs, "/data/file1")
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
	fi, err := fs.Stat("/data/file1")
	if err != nil || fi.Size != 1000 || fi.IsDir {
		t.Fatalf("Stat = %+v, %v", fi, err)
	}
}

func TestSmallRecordReadsHitCache(t *testing.T) {
	// The §III.B scenario: 4 KB-record reads out of a huge file should
	// trigger one blob read per block, not one per record.
	svc, fs := newTestFS(t, Config{BlockSize: 512})
	data := make([]byte, 2048)
	rand.New(rand.NewSource(5)).Read(data)
	writeFile(t, fs, "/big", data)

	r, err := fs.Open("/big")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rd := r.(*reader)
	buf := make([]byte, 16)
	for off := int64(0); off < 512; off += 16 {
		if _, err := rd.ReadAt(buf, off); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, data[off:off+16]) {
			t.Fatalf("record at %d mismatch", off)
		}
	}
	// All 32 record reads inside block 0 = one fetched block, plus at
	// most its background readahead of block 1.
	rd.mu.Lock()
	_, hit0 := rd.blocks[0]
	n := len(rd.blocks)
	for bi := range rd.blocks {
		if bi != 0 && bi != 1 {
			t.Errorf("unexpected cached block %d", bi)
		}
	}
	rd.mu.Unlock()
	if !hit0 || n > 2 {
		t.Fatalf("cache holds %d blocks (block0=%v), want block 0 plus at most its readahead", n, hit0)
	}
	_ = svc
}

func TestReaderCacheEviction(t *testing.T) {
	_, fs := newTestFS(t, Config{BlockSize: 256})
	data := make([]byte, 1024) // 4 blocks
	rand.New(rand.NewSource(6)).Read(data)
	writeFile(t, fs, "/f", data)
	r, _ := fs.Open("/f")
	defer r.Close()
	rd := r.(*reader)
	buf := make([]byte, 8)
	for _, off := range []int64{0, 300, 600, 900} {
		rd.ReadAt(buf, off)
	}
	if len(rd.blocks) > 2 {
		t.Fatalf("cache grew to %d blocks, cap 2", len(rd.blocks))
	}
	// LRU: most recent blocks (2 and 3) are resident.
	if _, ok := rd.blocks[3]; !ok {
		t.Fatal("most recent block evicted")
	}
}

func TestWriterCommitsWholeBlocks(t *testing.T) {
	// Writes are delayed until a block fills (§III.B): after writing
	// 1.5 blocks, only the full block enters the commit pipeline (and
	// lands in the background); Close flushes the tail.
	svc, fs := newTestFS(t, Config{BlockSize: 256})
	w, _ := fs.Create("/partial")
	w.Write(make([]byte, 384))
	payload, _ := svc.ns.Payload("/partial")
	bh, err := svc.dep.NewClient(0).OpenBlob(payload.(core.BlobID))
	if err != nil {
		t.Fatal(err)
	}
	size := awaitBlobSize(t, bh, 256)
	if size != 256 {
		t.Fatalf("committed %d bytes before close, want 256", size)
	}
	w.Close()
	_, size, _ = bh.Latest()
	if size != 384 {
		t.Fatalf("committed %d bytes after close, want 384", size)
	}
}

// awaitBlobSize polls until the blob's committed size reaches want (the
// writer pipeline commits full blocks in the background) and returns
// the size it settled at.
func awaitBlobSize(t *testing.T, b *core.Blob, want int64) int64 {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, size, err := b.Latest()
		if err != nil {
			t.Fatal(err)
		}
		if size >= want || time.Now().After(deadline) {
			return size
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSequentialReadToEOF(t *testing.T) {
	_, fs := newTestFS(t, Config{BlockSize: 128})
	data := make([]byte, 300)
	for i := range data {
		data[i] = byte(i % 7)
	}
	writeFile(t, fs, "/seq", data)
	r, _ := fs.Open("/seq")
	defer r.Close()
	var got []byte
	buf := make([]byte, 64)
	for {
		n, err := r.Read(buf)
		got = append(got, buf[:n]...)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("sequential read got %d bytes", len(got))
	}
}

func TestAppendAcrossClients(t *testing.T) {
	svc, fs := newTestFS(t, Config{})
	writeFile(t, fs, "/log", []byte("first|"))
	fs2 := svc.NewFS(2)
	w, err := fs2.Append("/log")
	if err != nil {
		t.Fatal(err)
	}
	w.Write([]byte("second|"))
	w.Close()
	got := readFile(t, fs, "/log")
	if string(got) != "first|second|" {
		t.Fatalf("appended = %q", got)
	}
}

func TestNamespaceOperations(t *testing.T) {
	_, fs := newTestFS(t, Config{})
	writeFile(t, fs, "/in/a", []byte("a"))
	writeFile(t, fs, "/in/b", []byte("bb"))
	if err := fs.Mkdir("/out"); err != nil {
		t.Fatal(err)
	}
	infos, err := fs.List("/in")
	if err != nil || len(infos) != 2 {
		t.Fatalf("List = %v, %v", infos, err)
	}
	if err := fs.Rename("/in/a", "/out/a"); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, fs, "/out/a"); string(got) != "a" {
		t.Fatalf("moved file = %q", got)
	}
	if err := fs.Delete("/in/b"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Open("/in/b"); !errors.Is(err, fsapi.ErrNotFound) {
		t.Fatalf("deleted open: %v", err)
	}
	if _, err := fs.Create("/out/a"); !errors.Is(err, fsapi.ErrExists) {
		t.Fatalf("duplicate create: %v", err)
	}
}

func TestOpenVersionSnapshots(t *testing.T) {
	// A reader opened on a snapshot keeps seeing it while the file
	// changes (future work §V).
	svc, fs := newTestFS(t, Config{BlockSize: 64})
	writeFile(t, fs, "/ds", bytes.Repeat([]byte("A"), 64))
	versions, err := fs.Versions("/ds")
	if err != nil || len(versions) != 1 {
		t.Fatalf("versions = %v, %v", versions, err)
	}
	snap := versions[0]

	w, _ := fs.Append("/ds")
	w.Write(bytes.Repeat([]byte("B"), 64))
	w.Close()

	old, err := fs.OpenAt("/ds", fsapi.AtVersion(uint64(snap)))
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	if old.Size() != 64 {
		t.Fatalf("snapshot size = %d", old.Size())
	}
	buf := make([]byte, 64)
	old.ReadAt(buf, 0)
	if !bytes.Equal(buf, bytes.Repeat([]byte("A"), 64)) {
		t.Fatal("snapshot content changed")
	}
	cur := readFile(t, fs, "/ds")
	if len(cur) != 128 {
		t.Fatalf("latest size = %d", len(cur))
	}
	_ = svc
}

func TestBlockLocationsCoverFile(t *testing.T) {
	_, fs := newTestFS(t, Config{BlockSize: 256})
	w, _ := fs.Create("/located")
	w.WriteSynthetic(1024)
	w.Close()
	locs, err := fs.BlockLocations("/located", 0, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if len(locs) != 4 {
		t.Fatalf("%d blocks, want 4", len(locs))
	}
	var pos int64
	for _, l := range locs {
		if l.Offset != pos {
			t.Fatalf("block at %d, want %d", l.Offset, pos)
		}
		if len(l.Hosts) == 0 {
			t.Fatal("block without hosts")
		}
		pos += l.Length
	}
	if pos != 1024 {
		t.Fatalf("blocks cover %d bytes", pos)
	}
}

func TestSyntheticFileLifecycle(t *testing.T) {
	_, fs := newTestFS(t, Config{BlockSize: 256})
	w, err := fs.Create("/synth")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.WriteSynthetic(1000); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
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
	// Mixing modes on one writer is rejected.
	w2, _ := fs.Create("/mixed")
	w2.WriteSynthetic(10)
	if _, err := w2.Write([]byte("real")); err == nil {
		t.Fatal("mixed write accepted")
	}
}

func TestConcurrentAppendsSameFileSim(t *testing.T) {
	// Future work §V: many clients appending to the same file through
	// BSFS; HDFS cannot express this at all.
	eng := sim.NewEngine()
	net := simnet.New(eng, simnet.Grid5000(20))
	env := cluster.NewSim(net)
	provs := make([]cluster.NodeID, 19)
	for i := range provs {
		provs[i] = cluster.NodeID(i + 1)
	}
	dep, err := core.NewDeployment(env, core.Options{PageSize: 64 << 10, ProviderNodes: provs})
	if err != nil {
		t.Fatal(err)
	}
	svc := NewService(dep, Config{BlockSize: 1 << 20})
	const appenders = 8
	const perAppender = 4 << 20
	eng.Go(func() {
		w, err := svc.NewFS(0).Create("/shared")
		if err != nil {
			t.Error(err)
			return
		}
		w.Close()
		wg := env.NewWaitGroup()
		for a := 0; a < appenders; a++ {
			node := cluster.NodeID(a + 1)
			wg.Go(func() {
				fs := svc.NewFS(node)
				aw, err := fs.Append("/shared")
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := aw.WriteSynthetic(perAppender); err != nil {
					t.Error(err)
					return
				}
				if err := aw.Close(); err != nil {
					t.Error(err)
				}
			})
		}
		wg.Wait()
		fi, err := svc.NewFS(0).Stat("/shared")
		if err != nil || fi.Size != appenders*perAppender {
			t.Errorf("final size = %d, %v", fi.Size, err)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestManyFilesStress(t *testing.T) {
	_, fs := newTestFS(t, Config{})
	for i := 0; i < 50; i++ {
		writeFile(t, fs, fmt.Sprintf("/stress/f%02d", i), []byte(fmt.Sprintf("content-%d", i)))
	}
	infos, err := fs.List("/stress")
	if err != nil || len(infos) != 50 {
		t.Fatalf("List = %d files, %v", len(infos), err)
	}
	for i := 0; i < 50; i++ {
		got := readFile(t, fs, fmt.Sprintf("/stress/f%02d", i))
		if string(got) != fmt.Sprintf("content-%d", i) {
			t.Fatalf("file %d = %q", i, got)
		}
	}
}

// TestConfigSurface pins Config's exported fields. The admission rule
// for a new one (see core's TestOptionsSurface): a non-test setter with
// a second value in use — otherwise it is a constant at its use site.
func TestConfigSurface(t *testing.T) {
	typ := reflect.TypeOf(Config{})
	var got []string
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.IsExported() {
			got = append(got, f.Name)
		}
	}
	want := []string{"BlockSize", "MaxInFlightBlocks"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Config has fields %v, want exactly %v", got, want)
	}
}
