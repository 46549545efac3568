// pipeline_test.go covers the asynchronous writer commit pipeline
// (ordering, bounded window, deferred-error contract) and the reader's
// background readahead.
package bsfs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fsapi"
	"repro/internal/sim"
	"repro/internal/simnet"
)

func setAllProvidersDown(svc *Service, down bool) {
	for _, p := range svc.dep.ProviderList() {
		p.SetDown(down)
	}
}

// TestWriterPipelineOrdering streams many blocks through the async
// pipeline and verifies the file reads back byte-identical and in
// order: the single flusher serializes version tickets.
func TestWriterPipelineOrdering(t *testing.T) {
	_, fs := newTestFS(t, Config{BlockSize: 256, MaxInFlightBlocks: 3})
	data := make([]byte, 256*9+100) // 9 full blocks + tail
	for i := range data {
		data[i] = byte(i * 31)
	}
	w, err := fs.Create("/pipe/ordered")
	if err != nil {
		t.Fatal(err)
	}
	// Uneven write sizes so block boundaries never align with calls.
	for off := 0; off < len(data); {
		n := 177
		if off+n > len(data) {
			n = len(data) - off
		}
		got, err := w.Write(data[off : off+n])
		if err != nil || got != n {
			t.Fatalf("Write at %d = %d, %v", off, got, err)
		}
		off += n
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, fs, "/pipe/ordered"); !bytes.Equal(got, data) {
		t.Fatal("pipelined write reordered or corrupted bytes")
	}
}

// TestWriterPipelineDeferredError: a mid-stream provider outage fails a
// background commit; the error must surface on a later Write or at
// Close, and every call after that returns the same error with n=0.
func TestWriterPipelineDeferredError(t *testing.T) {
	svc, fs := newTestFS(t, Config{BlockSize: 128, MaxInFlightBlocks: 2})
	w, err := fs.Create("/pipe/deferred")
	if err != nil {
		t.Fatal(err)
	}
	block := make([]byte, 128)
	if _, err := w.Write(block); err != nil {
		t.Fatal(err)
	}
	setAllProvidersDown(svc, true)
	defer setAllProvidersDown(svc, false)
	// Keep feeding blocks until the deferred error surfaces; the
	// bounded window guarantees it does within a few calls.
	var writeErr error
	for i := 0; i < 50 && writeErr == nil; i++ {
		_, writeErr = w.Write(block)
	}
	closeErr := w.Close()
	if writeErr == nil && closeErr == nil {
		t.Fatal("provider outage never surfaced from Write or Close")
	}
	err = writeErr
	if err == nil {
		err = closeErr
	}
	if !errors.Is(err, core.ErrProviderDown) {
		t.Fatalf("surfaced error = %v, want ErrProviderDown", err)
	}
	// The writer is poisoned: Close reports the deferred error too
	// (unless it already ran), and it never commits a bogus size.
	if closeErr != nil && !errors.Is(closeErr, core.ErrProviderDown) {
		t.Fatalf("Close error = %v, want ErrProviderDown", closeErr)
	}
}

// TestWriterSyncFlushRollback (the seed bug): a failed synchronous
// flush must consume nothing — n=0, buffered state rolled back — so the
// caller's view never double-counts, and later calls keep returning the
// error instead of silently re-buffering.
func TestWriterSyncFlushRollback(t *testing.T) {
	svc, fs := newTestFS(t, Config{BlockSize: 128, DisableCache: true})
	w, err := fs.Create("/pipe/rollback")
	if err != nil {
		t.Fatal(err)
	}
	setAllProvidersDown(svc, true)
	defer setAllProvidersDown(svc, false)
	n, err := w.Write(make([]byte, 200)) // no cache: flushes inline
	if !errors.Is(err, core.ErrProviderDown) {
		t.Fatalf("err = %v, want ErrProviderDown", err)
	}
	if n != 0 {
		t.Fatalf("failed Write consumed %d bytes, want 0", n)
	}
	ww := w.(*writer)
	if written := ww.Written(); written != 0 {
		t.Fatalf("accepted-byte count not rolled back: Written() = %d", written)
	}
	ww.mu.Lock()
	buffered := len(ww.buf)
	ww.mu.Unlock()
	if buffered != 0 {
		t.Fatalf("buffered state not rolled back: buf=%d", buffered)
	}
	// Poisoned: the next write fails with the same error, consuming 0.
	if n, err := w.Write([]byte("more")); n != 0 || !errors.Is(err, core.ErrProviderDown) {
		t.Fatalf("post-failure Write = %d, %v", n, err)
	}
	if err := w.Close(); !errors.Is(err, core.ErrProviderDown) {
		t.Fatalf("Close = %v, want ErrProviderDown", err)
	}
}

// TestWriterSyntheticPipeline mirrors the real-data pipeline for
// synthetic writes: block-granular async commits, correct final size.
func TestWriterSyntheticPipeline(t *testing.T) {
	_, fs := newTestFS(t, Config{BlockSize: 256, MaxInFlightBlocks: 2})
	w, err := fs.Create("/pipe/synth")
	if err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	for i := 0; i < 7; i++ {
		n, err := w.WriteSynthetic(300)
		if err != nil || n != 300 {
			t.Fatalf("WriteSynthetic = %d, %v", n, err)
		}
		total += n
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	fi, err := fs.Stat("/pipe/synth")
	if err != nil || fi.Size != total {
		t.Fatalf("Stat = %+v, %v; want size %d", fi, err, total)
	}
}

// TestReadaheadPrefetchesNextBlock: a sequential read of block 0 must
// trigger a background fetch of block 1 that lands in the cache before
// the reader asks for it.
func TestReadaheadPrefetchesNextBlock(t *testing.T) {
	_, fs := newTestFS(t, Config{BlockSize: 256})
	data := make([]byte, 1024)
	for i := range data {
		data[i] = byte(i % 251)
	}
	writeFile(t, fs, "/ra/file", data)
	r, err := fs.Open("/ra/file")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rd := r.(*reader)
	buf := make([]byte, 64)
	if _, err := rd.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	// The readahead daemon runs in the background; wait for block 1.
	deadline := time.Now().Add(5 * time.Second)
	for {
		rd.mu.Lock()
		_, ok := rd.blocks[1]
		rd.mu.Unlock()
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("block 1 never prefetched after sequential access to block 0")
		}
		time.Sleep(time.Millisecond)
	}
	// And the prefetched block serves correct bytes.
	if _, err := rd.ReadAt(buf, 256); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data[256:256+64]) {
		t.Fatal("prefetched block content mismatch")
	}
}

// TestReadaheadRandomAccessDoesNotTrigger: jumping straight into the
// middle of the file is not a sequential scan; block 3 alone must not
// pull block 4.
func TestReadaheadRandomAccessDoesNotTrigger(t *testing.T) {
	_, fs := newTestFS(t, Config{BlockSize: 256})
	writeFile(t, fs, "/ra/rand", make([]byte, 1280))
	r, err := fs.Open("/ra/rand")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rd := r.(*reader)
	buf := make([]byte, 16)
	if _, err := rd.ReadAt(buf, 3*256); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	rd.mu.Lock()
	_, prefetched := rd.blocks[4]
	rd.mu.Unlock()
	if prefetched {
		t.Fatal("random access to block 3 triggered readahead of block 4")
	}
}

// TestSyntheticReadaheadDoesNotPoisonRealReads: a synthetic scan
// readaheads the next block as a synthetic placeholder; a later real
// read of that block must re-fetch the bytes instead of returning the
// placeholder as a silent short read.
func TestSyntheticReadaheadDoesNotPoisonRealReads(t *testing.T) {
	_, fs := newTestFS(t, Config{BlockSize: 128})
	data := make([]byte, 3*128)
	for i := range data {
		data[i] = byte(i % 200)
	}
	writeFile(t, fs, "/mix/f", data)
	r, err := fs.Open("/mix/f")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// Synthetic traversal of block 0 triggers a synthetic readahead of
	// block 1 (cached as a nil placeholder once it lands).
	if n, err := r.ReadSyntheticAt(0, 128); err != nil || n != 128 {
		t.Fatalf("ReadSyntheticAt = %d, %v", n, err)
	}
	rd := r.(*reader)
	deadline := time.Now().Add(5 * time.Second)
	for {
		rd.mu.Lock()
		_, cached := rd.blocks[1]
		inflight := len(rd.inflight)
		rd.mu.Unlock()
		if cached || (inflight == 0 && time.Now().After(deadline)) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	// A real read across blocks 1 and 2 must return the actual bytes.
	buf := make([]byte, 2*128)
	n, err := r.ReadAt(buf, 128)
	if err != nil && !errors.Is(err, io.EOF) {
		t.Fatal(err)
	}
	if n != len(buf) || !bytes.Equal(buf, data[128:]) {
		t.Fatalf("real read after synthetic readahead: n=%d, mismatch=%v", n, !bytes.Equal(buf[:n], data[128:128+n]))
	}
}

// TestConcurrentFSReaders shares one FS (and its one core.Client)
// across goroutines reading different files — the BSFS-level face of
// Client goroutine-safety, under -race.
func TestConcurrentFSReaders(t *testing.T) {
	_, fs := newTestFS(t, Config{BlockSize: 256})
	const files = 6
	want := make([][]byte, files)
	for i := range want {
		want[i] = bytes.Repeat([]byte{byte('a' + i)}, 700)
		writeFile(t, fs, fmt.Sprintf("/conc/f%d", i), want[i])
	}
	var wg sync.WaitGroup
	errs := make([]error, files)
	for i := 0; i < files; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := fs.Open(fmt.Sprintf("/conc/f%d", i))
			if err != nil {
				errs[i] = err
				return
			}
			defer r.Close()
			got, err := io.ReadAll(r)
			if err != nil {
				errs[i] = err
				return
			}
			if !bytes.Equal(got, want[i]) {
				errs[i] = fmt.Errorf("file %d mismatch", i)
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("reader %d: %v", i, err)
		}
	}
}

// TestOpenDirectoryTypedError: Open/Append on a directory return the
// typed fsapi error instead of panicking on the payload assertion.
func TestOpenDirectoryTypedError(t *testing.T) {
	_, fs := newTestFS(t, Config{})
	if err := fs.Mkdir("/adir"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Open("/adir"); !errors.Is(err, fsapi.ErrIsDir) {
		t.Fatalf("Open(dir) = %v, want ErrIsDir", err)
	}
	if _, err := fs.Append("/adir"); !errors.Is(err, fsapi.ErrIsDir) {
		t.Fatalf("Append(dir) = %v, want ErrIsDir", err)
	}
}

// TestVersionsBatchedRoundTrip: Versions matches the per-version
// GetVersion view (aborted versions excluded) while using the batched
// Records call.
func TestVersionsBatchedRoundTrip(t *testing.T) {
	svc, fs := newTestFS(t, Config{BlockSize: 64})
	writeFile(t, fs, "/vb/f", make([]byte, 64))
	w, err := fs.Append("/vb/f")
	if err != nil {
		t.Fatal(err)
	}
	w.Write(make([]byte, 64))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := fs.Versions("/vb/f")
	if err != nil {
		t.Fatal(err)
	}
	want := []core.Version{1, 2}
	if len(got) != len(want) {
		t.Fatalf("Versions = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Versions = %v, want %v", got, want)
		}
	}
	_ = svc
}

// TestWriterPipelineBatchedCommit verifies the flusher's batched drain
// end-to-end: a deep in-flight window pushes multiple blocks through
// one core.AppendBatch (visible as one version per block, all
// published), and the bytes survive in append order.
func TestWriterPipelineBatchedCommit(t *testing.T) {
	svc, fs := newTestFS(t, Config{BlockSize: 256, MaxInFlightBlocks: 8})
	data := make([]byte, 256*12+77)
	for i := range data {
		data[i] = byte(i * 13)
	}
	w, err := fs.Create("/pipe/batched")
	if err != nil {
		t.Fatal(err)
	}
	// One big Write queues many full blocks at once, so the flusher's
	// next drain grabs a multi-block batch.
	if n, err := w.Write(data); err != nil || n != len(data) {
		t.Fatalf("Write = %d, %v", n, err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, fs, "/pipe/batched"); !bytes.Equal(got, data) {
		t.Fatal("batched pipeline corrupted or reordered bytes")
	}
	// Every block is one published version: 12 full + 1 tail.
	vs, err := fs.Versions("/pipe/batched")
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 13 {
		t.Fatalf("%d versions, want 13 (one per block)", len(vs))
	}
	_ = svc
}

// TestWriterPipelineBatchedFailureRollsBackBatch: when a batched
// commit fails, the whole batch (and everything buffered behind it)
// rolls out of the accepted byte count and the writer is poisoned.
func TestWriterPipelineBatchedFailureRollsBackBatch(t *testing.T) {
	svc, fs := newTestFS(t, Config{BlockSize: 128, MaxInFlightBlocks: 8})
	w, err := fs.Create("/pipe/batchfail")
	if err != nil {
		t.Fatal(err)
	}
	setAllProvidersDown(svc, true)
	defer setAllProvidersDown(svc, false)
	var writeErr error
	for i := 0; i < 50 && writeErr == nil; i++ {
		_, writeErr = w.Write(make([]byte, 128))
	}
	closeErr := w.Close()
	err = writeErr
	if err == nil {
		err = closeErr
	}
	if !errors.Is(err, core.ErrProviderDown) {
		t.Fatalf("surfaced error = %v, want ErrProviderDown", err)
	}
	if written := w.(*writer).Written(); written != 0 {
		t.Fatalf("accepted-byte count after total failure = %d, want 0", written)
	}
	// No version may have been published for the failed batches.
	vs, err := fs.Versions("/pipe/batchfail")
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 0 {
		t.Fatalf("%d versions published from failed batches, want 0", len(vs))
	}
}

// TestReadFromCommitsWhatWriteWould: io.Copy into a writer goes through
// ReadFrom, which reads the source straight into the pending block. For
// a payload that is not a whole number of blocks, a source that tears
// mid-block, and a writer without a cache, the file it leaves holds
// exactly the bytes a copy through Write leaves.
func TestReadFromCommitsWhatWriteWould(t *testing.T) {
	data := make([]byte, 256*5+100) // five blocks and part of a sixth
	for i := range data {
		data[i] = byte(i * 29)
	}
	errTorn := errors.New("torn")
	sized := func(r io.Reader) io.Reader { return &io.LimitedReader{R: r, N: int64(len(data))} }
	whole := func() io.Reader { return sized(bytes.NewReader(data)) }
	torn := func() io.Reader { // 2.3 blocks, then the source fails
		return sized(io.MultiReader(iotest.HalfReader(bytes.NewReader(data[:256*2+77])), iotest.ErrReader(errTorn)))
	}
	for _, tc := range []struct {
		name string
		cfg  Config
		src  func() io.Reader
		want int
		err  error
	}{
		{"partial-last-block", Config{BlockSize: 256}, whole, len(data), nil},
		{"unsized-source", Config{BlockSize: 256}, func() io.Reader { return iotest.OneByteReader(bytes.NewReader(data)) }, len(data), nil},
		{"torn-mid-block", Config{BlockSize: 256}, torn, 256*2 + 77, errTorn},
		{"no-cache", Config{BlockSize: 256, DisableCache: true}, whole, len(data), nil},
		{"no-cache-torn", Config{BlockSize: 256, DisableCache: true}, torn, 256*2 + 77, errTorn},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, fs := newTestFS(t, tc.cfg)
			for _, via := range []struct {
				path string
				dst  func(fsapi.Writer) io.Writer
			}{
				{"/readfrom", func(w fsapi.Writer) io.Writer { return w }},
				{"/write", func(w fsapi.Writer) io.Writer { return struct{ io.Writer }{w} }},
			} {
				w, err := fs.Create(via.path)
				if err != nil {
					t.Fatal(err)
				}
				n, err := io.Copy(via.dst(w), tc.src())
				if n != int64(tc.want) || !errors.Is(err, tc.err) {
					t.Fatalf("%s: copy = %d, %v; want %d, %v", via.path, n, err, tc.want, tc.err)
				}
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
				if got := readFile(t, fs, via.path); !bytes.Equal(got, data[:tc.want]) {
					t.Fatalf("%s holds %d bytes, want the first %d of the source", via.path, len(got), tc.want)
				}
			}
		})
	}
}

// gateReader reports each Read on entered, then fills it with the next
// slice from release, or ends the stream once release is closed.
type gateReader struct {
	entered chan struct{}
	release chan []byte
}

func (g gateReader) Read(p []byte) (int, error) {
	g.entered <- struct{}{}
	b, ok := <-g.release
	if !ok {
		return 0, io.EOF
	}
	return copy(p, b), nil
}

// TestReadFromRefusesConcurrentCalls: while ReadFrom reads the source
// into the pending block with the writer's lock released, a Write,
// WriteSynthetic, ReadFrom or Close from another goroutine is refused
// instead of touching that block. The writer is unharmed: once the read
// returns, the file holds exactly what ReadFrom read.
func TestReadFromRefusesConcurrentCalls(t *testing.T) {
	_, fs := newTestFS(t, Config{BlockSize: 256})
	w, err := fs.Create("/busy")
	if err != nil {
		t.Fatal(err)
	}
	src := gateReader{entered: make(chan struct{}), release: make(chan []byte)}
	type result struct {
		n   int64
		err error
	}
	done := make(chan result, 1)
	go func() {
		n, err := w.(io.ReaderFrom).ReadFrom(src)
		done <- result{n, err}
	}()
	data := bytes.Repeat([]byte("r"), 300)
	for _, part := range [][]byte{data[:200], data[200:256], data[256:]} { // each fits the room it is read into
		<-src.entered
		if n, err := w.Write([]byte("w")); n != 0 || !errors.Is(err, errFilling) {
			t.Errorf("Write during ReadFrom = %d, %v; want 0, errFilling", n, err)
		}
		if n, err := w.WriteSynthetic(1); n != 0 || !errors.Is(err, errFilling) {
			t.Errorf("WriteSynthetic during ReadFrom = %d, %v; want 0, errFilling", n, err)
		}
		if n, err := w.(io.ReaderFrom).ReadFrom(bytes.NewReader([]byte("x"))); n != 0 || !errors.Is(err, errFilling) {
			t.Errorf("ReadFrom during ReadFrom = %d, %v; want 0, errFilling", n, err)
		}
		if err := w.Close(); !errors.Is(err, errFilling) {
			t.Errorf("Close during ReadFrom = %v, want errFilling", err)
		}
		src.release <- part
	}
	<-src.entered
	close(src.release)
	if r := <-done; r.n != int64(len(data)) || r.err != nil {
		t.Fatalf("ReadFrom = %d, %v; want %d, nil", r.n, r.err, len(data))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, fs, "/busy"); !bytes.Equal(got, data) {
		t.Fatalf("file holds %q, want what ReadFrom read", got)
	}
}

// TestConcurrentWritersReuseBlocks: writers of one service refill the
// blocks each other's commits hand back, through Write and through
// ReadFrom at once. On the simulator a commit takes virtual time, so the
// other writers run while it is in flight; every file must still read
// back as written, so no block is handed out while a commit or a writer
// still holds it.
func TestConcurrentWritersReuseBlocks(t *testing.T) {
	eng := sim.NewEngine()
	env := cluster.NewSim(simnet.New(eng, simnet.Grid5000(8)))
	dep, err := core.NewDeployment(env, core.Options{PageSize: 64, ProviderNodes: []cluster.NodeID{1, 2, 3, 4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	svc := NewService(dep, Config{BlockSize: 256, MaxInFlightBlocks: 2})
	const writers, rounds, size = 4, 6, 256*7 + 40
	content := func(g, r int) []byte { return bytes.Repeat([]byte{byte(g*rounds + r)}, size) }
	eng.Go(func() {
		wg := env.NewWaitGroup()
		for g := 0; g < writers; g++ {
			wg.Go(func() {
				fs := svc.NewFS(cluster.NodeID(g))
				for r := 0; r < rounds; r++ {
					path := fmt.Sprintf("/reuse/w%d-%d", g, r)
					w, err := fs.Create(path)
					if err != nil {
						t.Error(err)
						return
					}
					if g%2 == 0 {
						_, err = w.Write(content(g, r))
					} else {
						_, err = io.Copy(w, &io.LimitedReader{R: iotest.HalfReader(bytes.NewReader(content(g, r))), N: size})
					}
					if cerr := w.Close(); err == nil {
						err = cerr
					}
					if err != nil {
						t.Errorf("%s: %v", path, err)
						return
					}
				}
			})
		}
		wg.Wait()
		for g := 0; g < writers; g++ {
			for r := 0; r < rounds; r++ {
				if got := readFile(t, svc.NewFS(0), fmt.Sprintf("/reuse/w%d-%d", g, r)); !bytes.Equal(got, content(g, r)) {
					t.Errorf("writer %d file %d read back wrong", g, r)
				}
			}
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// Written reports the bytes this writer has accepted: committed to the
// blob, queued in the pipeline, or still buffered. After a commit
// failure it reflects only bytes that reached (or can still reach) the
// blob — the rollback side of Write's partial-consumption contract.
func (w *writer) Written() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.written
}
