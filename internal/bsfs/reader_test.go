package bsfs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fsapi"
)

// TestRecycledBlocksNeverLeakBytes: a reader's blocks come from the free
// list holding whatever their last user left, so the gather must write
// every byte of a block itself. A sparse file — a short last page, then
// a write past the end — read right after another file's blocks went
// through the free list must read zeros in its holes.
func TestRecycledBlocksNeverLeakBytes(t *testing.T) {
	svc, fs := newTestFS(t, Config{BlockSize: 256})
	junk := bytes.Repeat([]byte{0xFF}, 4*256)
	writeFile(t, fs, "/junk", junk)
	if got := readFile(t, fs, "/junk"); !bytes.Equal(got, junk) {
		t.Fatal("junk file read back wrong")
	}

	// 100 bytes end mid-page; 50 more at 700 leave pages 2-9 unwritten.
	writeFile(t, fs, "/sparse", bytes.Repeat([]byte{0x11}, 100))
	b, err := fs.Blob("/sparse")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.WriteAt(bytes.Repeat([]byte{0x22}, 50), 700); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 750)
	copy(want, bytes.Repeat([]byte{0x11}, 100))
	copy(want[700:], bytes.Repeat([]byte{0x22}, 50))

	// Every free block holds junk, and the sparse file's reader takes its
	// first block from them.
	svc.mu.Lock()
	free := len(svc.free)
	for _, b := range svc.free {
		if bytes.IndexByte(b[:cap(b)], 0) >= 0 {
			t.Errorf("a free block holds a zero byte: the check below proves nothing")
		}
	}
	svc.mu.Unlock()
	if free == 0 {
		t.Fatal("no block on the free list after the junk file went through it")
	}
	r, err := fs.Open("/sparse")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got := make([]byte, 750)
	if n, err := r.ReadAt(got, 0); n != 750 || err != nil {
		t.Fatalf("ReadAt = %d, %v", n, err)
	}
	if i := firstDiff(got, want); i >= 0 {
		t.Fatalf("byte %d = %#x, want %#x: a recycled block's bytes show through", i, got[i], want[i])
	}
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// writes records the length of each Write it is handed.
type writes struct {
	bytes.Buffer
	lens []int
}

func (w *writes) Write(p []byte) (int, error) {
	w.lens = append(w.lens, len(p))
	return w.Buffer.Write(p)
}

// TestWriteToMatchesReadAt: after a Seek, WriteTo hands its writer what
// ReadAt returns from there to the end, one whole block (the rest of the
// first) per Write, and moves the position to the end.
func TestWriteToMatchesReadAt(t *testing.T) {
	const bs = 4 << 20
	dep, err := core.NewDeployment(cluster.NewLocal(4, 0), core.Options{PageSize: 64 << 10, ProviderNodes: []cluster.NodeID{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dep.Close() })
	fs := NewService(dep, Config{BlockSize: bs}).NewFS(0)
	big := make([]byte, 9<<20)
	rand.New(rand.NewSource(1)).Read(big)
	writeFile(t, fs, "/big", big)
	writeFile(t, fs, "/empty", nil)
	writeFile(t, fs, "/grown", big[:bs+100])
	w, err := fs.Append("/grown")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(big[:5000]); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	versions, err := fs.Versions("/grown")
	if err != nil || len(versions) < 2 {
		t.Fatalf("versions of /grown = %v, %v", versions, err)
	}
	before := uint64(versions[len(versions)-2]) // bs+100 bytes, the append not in it

	for _, tc := range []struct {
		name, path string
		version    uint64
		off        int64
		lens       []int
	}{
		{"offset-0", "/big", 0, 0, []int{bs, bs, 1 << 20}},
		{"mid-block", "/big", 0, bs + 12345, []int{bs - 12345, 1 << 20}},
		{"at-size", "/big", 0, 9 << 20, nil},
		{"past-size", "/big", 0, 10 << 20, nil},
		{"empty-file", "/empty", 0, 0, nil},
		{"older-version", "/grown", before, 3, []int{bs - 3, 100}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var opts []fsapi.OpenOption
			if tc.version != 0 {
				opts = append(opts, fsapi.AtVersion(tc.version))
			}
			open := func() *reader {
				r, err := fs.OpenAt(tc.path, opts...)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { r.Close() })
				return r.(*reader)
			}
			ra := open()
			want := make([]byte, max(ra.Size()-tc.off, 0))
			if n, err := ra.ReadAt(want, tc.off); n != len(want) || err != nil && !errors.Is(err, io.EOF) {
				t.Fatalf("ReadAt = %d, %v", n, err)
			}
			r := open()
			if pos, err := r.Seek(tc.off, io.SeekStart); pos != tc.off || err != nil {
				t.Fatalf("Seek = %d, %v", pos, err)
			}
			var got writes
			n, err := io.Copy(&got, r)
			if err != nil || n != int64(len(want)) || !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("WriteTo = %d, %v, match=%v; want %d bytes", n, err, bytes.Equal(got.Bytes(), want), len(want))
			}
			if fmt.Sprint(got.lens) != fmt.Sprint(tc.lens) {
				t.Fatalf("writes of %v, want %v", got.lens, tc.lens)
			}
			if pos, _ := r.Seek(0, io.SeekCurrent); pos != max(tc.off, r.Size()) {
				t.Fatalf("position %d after WriteTo, want %d", pos, max(tc.off, r.Size()))
			}
		})
	}
}

// lendingWriter checks, inside each Write, that the block it was lent
// keeps its bytes while the reader evicts it and another reader refills
// every free block.
type lendingWriter struct {
	t     *testing.T
	r     *reader
	other fsapi.FileSystem
	want  []byte
	off   int
}

func (w *lendingWriter) Write(p []byte) (int, error) {
	held := bytes.Clone(p)
	// Reading the last two blocks evicts the one p lies in, unless it is
	// one of them.
	buf := make([]byte, 2*256)
	if _, err := w.r.ReadAt(buf, w.r.Size()-int64(len(buf))); err != nil {
		return 0, err
	}
	bi := int64(w.off / 256)
	w.r.mu.Lock()
	_, cached := w.r.blocks[bi]
	w.r.mu.Unlock()
	if cached && bi < w.r.Size()/256-2 {
		w.t.Errorf("block %d still cached after reading past it", w.off/256)
	}
	readFile(w.t, w.other, "/other")
	if !bytes.Equal(p, held) {
		return 0, fmt.Errorf("block at %d changed under its borrower", w.off)
	}
	if !bytes.Equal(p, w.want[w.off:w.off+len(p)]) {
		return 0, fmt.Errorf("block at %d read wrong", w.off)
	}
	w.off += len(p)
	return len(p), nil
}

// TestBorrowedBlockOutlivesEviction: a block WriteTo lends goes back to
// the free list only once its borrower is done, however soon the cache
// lets go of it.
func TestBorrowedBlockOutlivesEviction(t *testing.T) {
	_, fs := newTestFS(t, Config{BlockSize: 256})
	want := make([]byte, 8*256)
	rand.New(rand.NewSource(2)).Read(want)
	writeFile(t, fs, "/lent", want)
	writeFile(t, fs, "/other", bytes.Repeat([]byte{0xAB}, 6*256))
	r, err := fs.Open("/lent")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	lw := &lendingWriter{t: t, r: r.(*reader), other: fs, want: want}
	if _, err := lw.r.WriteTo(&writerOnly{lw}); err != nil {
		t.Fatal(err)
	}
	if lw.off != len(want) {
		t.Fatalf("WriteTo wrote %d bytes, want %d", lw.off, len(want))
	}
}

// writerOnly hides everything but Write.
type writerOnly struct{ io.Writer }

// TestConcurrentReadAtsDuringEviction runs random ReadAts on one reader
// from several goroutines while a sequential scan's readahead evicts
// blocks under them (run it with -race): every read returns the file's
// bytes, and once the reader is closed its blocks go back to the free
// list.
func TestConcurrentReadAtsDuringEviction(t *testing.T) {
	svc, fs := newTestFS(t, Config{BlockSize: 256})
	want := make([]byte, 16*256+17)
	rand.New(rand.NewSource(3)).Read(want)
	writeFile(t, fs, "/hot", want)
	r, err := fs.Open("/hot")
	if err != nil {
		t.Fatal(err)
	}
	const readers, reads = 4, 200
	var wg sync.WaitGroup
	errs := make(chan error, readers+1)
	wg.Add(1)
	go func() { // the sequential scan that drives readahead
		defer wg.Done()
		buf := make([]byte, 100)
		for pass := 0; pass < 20; pass++ {
			for off := int64(0); off < int64(len(want)); off += int64(len(buf)) {
				n, err := r.ReadAt(buf, off)
				if err != nil && !errors.Is(err, io.EOF) || !bytes.Equal(buf[:n], want[off:off+int64(n)]) {
					errs <- fmt.Errorf("scan at %d: %d bytes, %v", off, n, err)
					return
				}
			}
		}
	}()
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < reads; i++ {
				off := rng.Int63n(int64(len(want)))
				buf := make([]byte, 1+rng.Intn(600))
				n, err := r.ReadAt(buf, off)
				if err != nil && !errors.Is(err, io.EOF) || !bytes.Equal(buf[:n], want[off:off+int64(n)]) {
					errs <- fmt.Errorf("reader %d at %d: %d bytes, %v", g, off, n, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	r.Close()
	// The scan alone held three blocks at a time, so the list fills up.
	full := 2 * svc.cfg.MaxInFlightBlocks
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		svc.mu.Lock()
		free := len(svc.free)
		svc.mu.Unlock()
		if free == full {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d blocks on the free list after Close, want %d", free, full)
		}
	}
}
