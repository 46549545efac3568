// pipeline_test.go covers the asynchronous writer commit pipeline
// (ordering, bounded window, deferred-error contract) and the reader's
// background readahead.
package bsfs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
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

// TestWriterFailureReturnsCommittedPrefix: every provider dies while
// one Write is partway through its blocks. The Write that surfaces the
// failure returns exactly the bytes of its argument that reached the
// blob, the accepted-byte count agrees with the blob's size, nothing
// stays buffered, and every later call returns the same error with n=0
// instead of silently re-buffering. On the simulator the commits take
// virtual time, so the outage lands at the same block on every run.
func TestWriterFailureReturnsCommittedPrefix(t *testing.T) {
	const bs = 64 << 10
	eng := sim.NewEngine()
	env := cluster.NewSim(simnet.New(eng, simnet.Grid5000(8)))
	dep, err := core.NewDeployment(env, core.Options{PageSize: 4 << 10, ProviderNodes: []cluster.NodeID{1, 2, 3, 4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	svc := NewService(dep, Config{BlockSize: bs, MaxInFlightBlocks: 2})
	eng.Go(func() {
		w, err := svc.NewFS(6).Create("/pipe/prefix")
		if err != nil {
			t.Error(err)
			return
		}
		ww := w.(*writer)
		env.Go(func() { // bounded, so a writer that fails early cannot hang the run
			for i := 0; i < 10000 && ww.committedBytes() < 2*bs; i++ {
				env.Sleep(time.Millisecond)
			}
			setAllProvidersDown(svc, true)
		})
		p := make([]byte, 20*bs+100)
		n, err := w.Write(p)
		if !errors.Is(err, core.ErrProviderDown) {
			t.Errorf("Write = %d, %v; want the outage to surface mid-Write", n, err)
			return
		}
		_, size, lerr := ww.b.Latest()
		if lerr != nil {
			t.Error(lerr)
			return
		}
		if n == 0 || int64(n) != size {
			t.Errorf("failed Write consumed %d bytes; the blob holds %d, all from this Write", n, size)
		}
		if written := ww.Written(); written != size {
			t.Errorf("Written() = %d after the failure, want the blob's size %d", written, size)
		}
		ww.mu.Lock()
		buffered := int64(len(ww.buf)) + ww.synthBuf
		ww.mu.Unlock()
		if buffered != 0 {
			t.Errorf("%d bytes still buffered after the failure", buffered)
		}
		if n, err := w.Write([]byte("more")); n != 0 || !errors.Is(err, core.ErrProviderDown) {
			t.Errorf("post-failure Write = %d, %v", n, err)
		}
		if err := w.Close(); !errors.Is(err, core.ErrProviderDown) {
			t.Errorf("Close = %v, want ErrProviderDown", err)
		}
		if written := ww.Written(); written != size {
			t.Errorf("Written() = %d after Close, want %d", written, size)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
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

// TestReadaheadPrefetchesNextBlock: a stream of reads in block 0 (a
// call starting where the last one ended) must trigger a background
// fetch of block 1 that lands in the cache before the reader asks for
// it.
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
	for _, off := range []int64{0, 64} {
		if _, err := rd.ReadAt(buf, off); err != nil {
			t.Fatal(err)
		}
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

// TestSimRunEndsInFlightReadahead: a simulation whose body returns
// while a readahead fetch is still moving bytes leaves no goroutine
// behind once Run returns. The body writes a 4-block file, lets the
// flushes finish, reads blocks 0 and 1 and returns with block 2's
// readahead in flight.
func TestSimRunEndsInFlightReadahead(t *testing.T) {
	before := runtime.NumGoroutine()
	eng := sim.NewEngine()
	env := cluster.NewSim(simnet.New(eng, simnet.Grid5000(8)))
	dep, err := core.NewDeployment(env, core.Options{PageSize: 64 << 10, ProviderNodes: []cluster.NodeID{1, 2, 3, 4, 5, 6, 7}})
	if err != nil {
		t.Fatal(err)
	}
	const block = 1 << 20
	svc := NewService(dep, Config{BlockSize: block})
	inflight := 0
	eng.Go(func() {
		fs := svc.NewFS(0)
		w, err := fs.Create("/f")
		if err == nil {
			_, err = w.WriteSynthetic(4 * block)
		}
		if err == nil {
			err = w.Close()
		}
		if err != nil {
			t.Error(err)
			return
		}
		env.Sleep(10 * time.Second) // virtual: the providers' flushes finish
		r, err := fs.Open("/f")
		if err != nil {
			t.Error(err)
			return
		}
		defer r.Close()
		for bi := range int64(2) {
			if n, err := r.ReadSyntheticAt(bi*block, block); err != nil || n != block {
				t.Errorf("block %d: read %d bytes, %v", bi, n, err)
			}
		}
		rd := r.(*reader)
		rd.mu.Lock()
		inflight = len(rd.inflight)
		rd.mu.Unlock()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if inflight != 1 {
		t.Fatalf("%d readahead fetches in flight as the body returned, want 1", inflight)
	}
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); n > before; n = runtime.NumGoroutine() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left after Run, %d before the deployment", n, before)
		}
		time.Sleep(time.Millisecond)
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

// simFS runs body in a simulation over a deployment whose providers
// sit on nodes 3-7 and metadata on nodes 1-2, once /f holds blocks
// blocks of block bytes (synthetic, or real zeros) and the providers'
// flushes have finished.
func simFS(t *testing.T, block, blocks int64, synthetic bool, body func(env *cluster.Sim, net *simnet.Network, svc *Service)) {
	t.Helper()
	eng := sim.NewEngine()
	net := simnet.New(eng, simnet.Grid5000(12))
	env := cluster.NewSim(net)
	dep, err := core.NewDeployment(env, core.Options{
		PageSize:      16 << 10,
		MetaNodes:     []cluster.NodeID{1, 2},
		ProviderNodes: []cluster.NodeID{3, 4, 5, 6, 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	svc := NewService(dep, Config{BlockSize: block})
	eng.Go(func() {
		w, err := svc.NewFS(0).Create("/f")
		if err == nil && synthetic {
			_, err = w.WriteSynthetic(blocks * block)
		} else if err == nil {
			_, err = w.Write(make([]byte, blocks*block))
		}
		if err == nil {
			err = w.Close()
		}
		if err != nil {
			t.Error(err)
			return
		}
		env.Sleep(10 * time.Second) // virtual: the providers' flushes finish
		body(env, net, svc)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestReadaheadOnlyContinuesAStream: a call reads the block after its
// extent ahead only when it starts where the previous call on the
// reader ended. Each row makes its calls on a fresh reader of a 4-block
// file and checks whether block 2 was fetched (cached or in flight).
func TestReadaheadOnlyContinuesAStream(t *testing.T) {
	const bs = 64 << 10
	for _, synthetic := range []bool{false, true} {
		rows := []struct {
			name  string
			calls [][2]int64 // [off, len) of each call
			want  bool
		}{
			{"one call over blocks 0-1", [][2]int64{{0, 2 * bs}}, false},
			{"a jump into block 1", [][2]int64{{0, bs}, {bs + bs/2, bs / 4}}, false},
			{"stream over blocks 0-1", [][2]int64{{0, bs}, {bs, bs}}, true},
			{"stream inside block 1", [][2]int64{{bs + bs/4, bs / 4}, {bs + bs/2, bs / 4}}, true},
		}
		got := make([]bool, len(rows))
		simFS(t, bs, 4, synthetic, func(_ *cluster.Sim, _ *simnet.Network, svc *Service) {
			fs := svc.NewFS(8)
			for i, row := range rows {
				r, err := fs.Open("/f")
				if err != nil {
					t.Error(err)
					return
				}
				rd := r.(*reader)
				for _, c := range row.calls {
					if synthetic {
						_, err = rd.ReadSyntheticAt(c[0], c[1])
					} else {
						_, err = rd.ReadAt(make([]byte, c[1]), c[0])
					}
					if err != nil {
						t.Errorf("%s: read at %d: %v", row.name, c[0], err)
					}
				}
				rd.mu.Lock()
				_, cached := rd.blocks[2]
				_, inflight := rd.inflight[2]
				rd.mu.Unlock()
				got[i] = cached || inflight
				r.Close()
			}
		})
		for i, row := range rows {
			if got[i] != row.want {
				t.Errorf("synthetic=%v, %s: block 2 fetched = %v, want %v", synthetic, row.name, got[i], row.want)
			}
		}
	}
}

// TestDisjointReadersMoveOnlyTheirBytes: four readers of disjoint
// 2-block parts of one file. Read in one call each, the parts move the
// file's bytes out of the providers and nothing more: no reader fetches
// its neighbour's first block. Read in record-sized calls, each part is
// a stream whose last call reads one block ahead, so every reader but
// the last still fetches its neighbour's first block. simnet integrates
// flow rates in float64, so its byte counters may miss a few bytes; a
// fetched block adds a whole 256 KiB.
func TestDisjointReadersMoveOnlyTheirBytes(t *testing.T) {
	const bs, readers = 256 << 10, 4
	providers := func(net *simnet.Network) (up int64) {
		s := net.Stats()
		for n := 3; n <= 7; n++ {
			up += s.BytesUp[n]
		}
		return up
	}
	for _, tc := range []struct {
		name   string
		record int64 // bytes per call
		extra  int64 // blocks fetched beyond the readers' parts
	}{
		{"one call", 2 * bs, 0},
		{"record-sized calls", 64 << 10, readers - 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var before, after int64
			simFS(t, bs, 2*readers, true, func(env *cluster.Sim, net *simnet.Network, svc *Service) {
				before = providers(net)
				wg := env.NewWaitGroup()
				for i := range int64(readers) {
					wg.Go(func() {
						r, err := svc.NewFS(cluster.NodeID(8 + i)).Open("/f")
						if err != nil {
							t.Error(err)
							return
						}
						defer r.Close()
						for off := 2 * i * bs; off < 2*(i+1)*bs; off += tc.record {
							if n, err := r.ReadSyntheticAt(off, tc.record); err != nil || n != tc.record {
								t.Errorf("reader %d at %d: read %d bytes, %v", i, off, n, err)
								return
							}
						}
					})
				}
				wg.Wait()
				env.Sleep(10 * time.Second) // any readahead still in flight lands
				after = providers(net)
			})
			if got, want := after-before, int64(2*readers*bs+tc.extra*bs); got < want-16 || got > want+16 {
				t.Fatalf("providers sent %d bytes to %d readers of disjoint parts, want %d", got, readers, want)
			}
		})
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
	// A synthetic stream through block 0 triggers a synthetic readahead
	// of block 1, cached as a nil placeholder once it lands.
	for _, off := range []int64{0, 64} {
		if n, err := r.ReadSyntheticAt(off, 64); err != nil || n != 64 {
			t.Fatalf("ReadSyntheticAt(%d) = %d, %v", off, n, err)
		}
	}
	rd := r.(*reader)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		rd.mu.Lock()
		c, cached := rd.blocks[1]
		rd.mu.Unlock()
		if cached {
			if c.data != nil {
				t.Fatal("block 1 cached with bytes after a synthetic readahead")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("block 1's synthetic placeholder never formed")
		}
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
// a payload that is not a whole number of blocks, a source that reads
// one byte at a time, and a source that tears mid-block, the file it
// leaves holds exactly the bytes a copy through Write leaves.
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

// committedBytes reports the bytes this writer has appended to the blob.
func (w *writer) committedBytes() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.committed
}
