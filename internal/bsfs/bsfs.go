// Package bsfs implements BSFS, the paper's contribution (§III.B): a
// file-system layer on top of the BlobSeer blob store that plugs into
// the MapReduce framework where HDFS normally sits.
//
// BSFS consists of:
//
//   - a centralized namespace manager mapping a hierarchical file
//     namespace onto blobs (one file = one blob);
//   - a client-side cache: reads prefetch whole blocks (MapReduce
//     processes small records, ~4 KB, out of huge files), and writes
//     are committed only when a whole block has accumulated;
//   - data-layout exposure: BlockLocations aggregates BlobSeer's
//     page-level distribution into the per-block host lists the
//     MapReduce scheduler consumes.
//
// Because the underlying store versions every write, BSFS also offers
// what the paper's future-work section asks for: concurrent appends to
// a single file and snapshot reads (OpenAt with fsapi.AtVersion) that
// let workflows run on frozen views of a dataset while it keeps
// changing.
package bsfs

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fsapi"
)

// Config parameterizes a BSFS deployment.
type Config struct {
	// BlockSize is the cache/commit block and the split unit exposed to
	// MapReduce (default 64 MB). Must be a multiple of the blob page
	// size.
	BlockSize int64
	// MaxInFlightBlocks bounds the writer's asynchronous commit
	// pipeline: up to this many full blocks may be queued or committing
	// in the background while the application fills the next one
	// (default 2). The flusher commits half-window runs through
	// core.Blob.Append batches, so depths >= 4 amortize the
	// version-manager round trips across blocks while the other half
	// of the window keeps filling; the default depth 2 is classic
	// double-buffering (single-block commits).
	MaxInFlightBlocks int
	// DisableCache bypasses the client cache entirely (ablation A2):
	// every read and write goes straight to BlobSeer at request
	// granularity, and writes commit synchronously in the caller.
	DisableCache bool
}

func (c *Config) fillDefaults() {
	if c.BlockSize <= 0 {
		c.BlockSize = 64 << 20
	}
	if c.MaxInFlightBlocks <= 0 {
		c.MaxInFlightBlocks = 2
	}
}

// Service is the centralized namespace manager.
type Service struct {
	env  cluster.Env
	node cluster.NodeID
	cfg  Config
	ns   *fsapi.Namespace
	dep  *core.Deployment

	// free holds whole blocks whose commits have returned, for the next
	// writer to refill, for the service's lifetime: at most two writers'
	// windows, 2 × MaxInFlightBlocks × BlockSize bytes, the in-flight
	// blocks of two concurrent uploads. That many serves two clients
	// uploading back to back from the list alone; a list dropped
	// whenever no writer is open would miss at every gap between one
	// client's files.
	mu   sync.Mutex
	free [][]byte
}

// block returns an empty block buffer with room for at least n bytes: a
// free whole block if there is one and n fits, else a fresh one of
// exactly n.
func (s *Service) block(n int64) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	if k := len(s.free); k > 0 && n <= s.cfg.BlockSize {
		b := s.free[k-1]
		s.free = s.free[:k-1]
		return b[:0]
	}
	return make([]byte, 0, n)
}

// recycle takes back a block whose commit has returned: the providers'
// caches copied its pages on ingest, so nothing refers to it any more.
// Only whole blocks are kept, and no more than two writers' windows.
func (s *Service) recycle(b []byte) {
	if int64(cap(b)) != s.cfg.BlockSize {
		return
	}
	s.mu.Lock()
	if len(s.free) < 2*s.cfg.MaxInFlightBlocks {
		s.free = append(s.free, b)
	}
	s.mu.Unlock()
}

// NewService starts the namespace manager over a BlobSeer deployment,
// on the node that hosts the deployment's other masters.
func NewService(dep *core.Deployment, cfg Config) *Service {
	cfg.fillDefaults()
	return &Service{env: dep.Env, node: dep.Opts.VMNodes[0], cfg: cfg, ns: fsapi.NewNamespace(), dep: dep}
}

// Deployment exposes the underlying BlobSeer deployment.
func (s *Service) Deployment() *core.Deployment { return s.dep }

// NewFS returns a file-system client bound to a node.
func (s *Service) NewFS(node cluster.NodeID) *FS {
	return &FS{svc: s, node: node, blob: s.dep.NewClient(node)}
}

// FS implements fsapi.FileSystem for one client node.
type FS struct {
	svc  *Service
	node cluster.NodeID
	blob *core.Client
}

var _ fsapi.FileSystem = (*FS)(nil)

// Name implements fsapi.FileSystem.
func (f *FS) Name() string { return "bsfs" }

// BlockSize implements fsapi.FileSystem.
func (f *FS) BlockSize() int64 { return f.svc.cfg.BlockSize }

// rtt charges one namespace-manager round trip.
func (f *FS) rtt() { f.svc.env.RTT(f.node, f.svc.node) }

// Create registers a new file backed by a fresh blob and returns a
// block-buffered writer. fsapi.AtVersion is not meaningful here and is
// rejected.
func (f *FS) Create(path string, opts ...fsapi.OpenOption) (fsapi.Writer, error) {
	s := fsapi.ApplyOpenOptions(opts)
	if s.HasVersion {
		return nil, fmt.Errorf("%w: bsfs create at a pinned version", fsapi.ErrNotSupported)
	}
	b, err := f.blob.CreateBlob(0)
	if err != nil {
		return nil, err
	}
	f.rtt()
	if err := f.svc.ns.CreateFile(path, b.ID()); err != nil {
		return nil, fmt.Errorf("bsfs: create %s: %w", path, err)
	}
	return f.newWriter(path, b), nil
}

// Append opens an existing file for appending; multiple clients may
// append to the same file concurrently (BlobSeer serializes the
// versions).
func (f *FS) Append(path string, opts ...fsapi.OpenOption) (fsapi.Writer, error) {
	s := fsapi.ApplyOpenOptions(opts)
	if s.HasVersion {
		return nil, fmt.Errorf("%w: bsfs append at a pinned version", fsapi.ErrNotSupported)
	}
	b, err := f.blobOf(path)
	if err != nil {
		return nil, err
	}
	return f.newWriter(path, b), nil
}

// VMShardNodes describes the version-manager tier behind this file
// system: the shard hosting nodes in shard-index order (one entry for
// a paper-style centralized deployment).
func (f *FS) VMShardNodes() []cluster.NodeID { return f.svc.dep.VM.Nodes() }

// Deployment exposes the BlobSeer deployment behind this file system
// (membership operations, provider introspection).
func (f *FS) Deployment() *core.Deployment { return f.svc.dep }

// ShardOf reports which version-manager shard owns a file: the blob id
// behind the path and its shard index (id mod shard count — the same
// pure routing function every client uses).
func (f *FS) ShardOf(path string) (core.BlobID, int, error) {
	b, err := f.blobOf(path)
	if err != nil {
		return 0, 0, err
	}
	return b.ID(), f.svc.dep.VM.ShardIndex(b.ID()), nil
}

func (f *FS) blobOf(path string) (*core.Blob, error) {
	f.rtt()
	payload, err := f.svc.ns.Payload(path)
	if err != nil {
		// Directories surface as fsapi.ErrIsDir here, typed rather
		// than a payload-assertion panic below.
		return nil, fmt.Errorf("bsfs: %s: %w", path, err)
	}
	id, ok := payload.(core.BlobID)
	if !ok {
		return nil, fmt.Errorf("bsfs: %s: %w: payload is %T, not a blob", path, fsapi.ErrNotSupported, payload)
	}
	return f.blob.OpenBlob(id)
}

// Open returns a prefetching reader over the file's latest snapshot —
// OpenAt with no options.
func (f *FS) Open(path string) (fsapi.Reader, error) { return f.OpenAt(path) }

// OpenAt returns a prefetching reader over the file: its latest
// snapshot by default, or a frozen one pinned with fsapi.AtVersion —
// the versioning integration of the paper's future-work section (§V),
// expressed through the shared fsapi contract so frameworks need no
// BSFS-specific side door.
func (f *FS) OpenAt(path string, opts ...fsapi.OpenOption) (fsapi.Reader, error) {
	s := fsapi.ApplyOpenOptions(opts)
	b, err := f.blobOf(path)
	if err != nil {
		return nil, err
	}
	if s.HasVersion {
		v := core.Version(s.Version)
		rec, err := f.svc.dep.VM.Shard(b.ID()).GetVersion(f.node, b.ID(), v)
		if err != nil {
			return nil, err
		}
		return f.newReader(b, v, rec.SizeAfter), nil
	}
	v, size, err := b.Latest()
	if err != nil {
		return nil, err
	}
	return f.newReader(b, v, size), nil
}

// Versions lists the published snapshots of a file in one batched
// version-manager round trip (Blob.History), instead of one GetVersion
// RTT per version.
func (f *FS) Versions(path string) ([]core.Version, error) {
	b, err := f.blobOf(path)
	if err != nil {
		return nil, err
	}
	recs, err := b.History()
	if err != nil {
		return nil, err
	}
	out := make([]core.Version, 0, len(recs))
	for _, rec := range recs {
		if !rec.Aborted {
			out = append(out, rec.Version)
		}
	}
	return out, nil
}

// Stat implements fsapi.FileSystem.
func (f *FS) Stat(path string) (fsapi.FileInfo, error) {
	f.rtt()
	fi, err := f.svc.ns.Stat(path)
	if err != nil {
		return fsapi.FileInfo{}, err
	}
	// The namespace tracks committed sizes; refresh from the VM for
	// files (appends from other clients may have advanced it).
	if !fi.IsDir {
		if payload, perr := f.svc.ns.Payload(path); perr == nil {
			if id, ok := payload.(core.BlobID); ok {
				if b, berr := f.blob.OpenBlob(id); berr == nil {
					if _, size, verr := b.Latest(); verr == nil && size > fi.Size {
						fi.Size = size
					}
				}
			}
		}
	}
	return fi, nil
}

// List implements fsapi.FileSystem.
func (f *FS) List(path string) ([]fsapi.FileInfo, error) {
	f.rtt()
	return f.svc.ns.List(path)
}

// Mkdir implements fsapi.FileSystem.
func (f *FS) Mkdir(path string) error {
	f.rtt()
	return f.svc.ns.Mkdir(path)
}

// Rename implements fsapi.FileSystem.
func (f *FS) Rename(oldPath, newPath string) error {
	f.rtt()
	return f.svc.ns.Rename(oldPath, newPath)
}

// Delete implements fsapi.FileSystem. The blob's pages remain in the
// store (BlobSeer never reclaims versions; the paper shares this
// property).
func (f *FS) Delete(path string) error {
	f.rtt()
	_, err := f.svc.ns.Delete(path)
	return err
}

// BlockLocations aggregates page-level placement into per-block host
// lists, best-covered host first (§III.B data-layout exposure).
func (f *FS) BlockLocations(path string, off, length int64) ([]fsapi.BlockLocation, error) {
	b, err := f.blobOf(path)
	if err != nil {
		return nil, err
	}
	v, size, err := b.Latest()
	if err != nil {
		return nil, err
	}
	if v == 0 || off >= size || length <= 0 {
		return nil, nil
	}
	if off+length > size {
		length = size - off
	}
	ps := b.PageSize()
	bs := f.svc.cfg.BlockSize
	var out []fsapi.BlockLocation
	for blockStart := off - off%bs; blockStart < off+length; blockStart += bs {
		blockLen := bs
		if blockStart+blockLen > size {
			blockLen = size - blockStart
		}
		locs, err := b.Locations(blockStart, blockLen, core.AtVersion(v))
		if err != nil {
			return nil, err
		}
		cover := map[cluster.NodeID]int64{}
		for _, l := range locs {
			for _, h := range l.Providers {
				cover[h] += ps
			}
		}
		hosts := make([]cluster.NodeID, 0, len(cover))
		for h := range cover {
			hosts = append(hosts, h)
		}
		sort.Slice(hosts, func(i, j int) bool {
			if cover[hosts[i]] != cover[hosts[j]] {
				return cover[hosts[i]] > cover[hosts[j]]
			}
			return hosts[i] < hosts[j]
		})
		if len(hosts) > 3 {
			hosts = hosts[:3]
		}
		out = append(out, fsapi.BlockLocation{Offset: blockStart, Length: blockLen, Hosts: hosts})
	}
	return out, nil
}

// ---------------------------------------------------------------------
// Writer: write-back block cache (§III.B — "delays committing writes
// until a whole block has been filled in the cache") with an
// asynchronous commit pipeline: full blocks are handed to a single
// background flusher with a bounded in-flight window, so the
// application fills the next block while BlobSeer commits the previous
// one. The flusher drains its queue in batches and commits each batch
// through core.Blob.Append batches, amortizing the version-manager
// round trips (one ticket request, one batched publish) across
// every in-flight block. Append order is preserved because the one
// flusher requests every version ticket; errors are deferred and
// surfaced by the next Write or by Close. Bytes enter the pending block
// by one copy, from p in Write or from the source in ReadFrom, and a
// block whose commit has returned goes back to the service for the next
// one.
//
// Error contract: when a commit fails — synchronously or in the
// background — the writer is failed for good. The failed chunk and
// everything still buffered or queued behind it are rolled back out of
// the accepted byte count (committing bytes after a hole would corrupt
// the file), Write reports how many bytes of its argument were actually
// consumed, and every later Write/Close returns the original error.

// pendingBlock is one block handed to the commit path. data nil means
// a synthetic (size-only) block.
type pendingBlock struct {
	data []byte
	size int64
}

type writer struct {
	fs   *FS
	path string
	b    *core.Blob

	mu        sync.Mutex
	buf       []byte // the pending block: real bytes buffered toward the next commit
	synthBuf  int64  // synthetic buffered bytes
	synthetic bool
	written   int64 // bytes committed, queued or buffered
	closed    bool
	filling   bool // ReadFrom is reading into buf with mu released

	// Commit pipeline state. progSig is a one-shot wakeup re-armed on
	// use: it parks producers waiting for window space and Close
	// waiting for drain. The flusher daemon runs only while the queue
	// is non-empty — an abandoned (never-Closed) writer pins no
	// goroutine once its queue drains.
	queue    []pendingBlock
	inFlight int   // queued blocks plus the one being committed
	flushErr error // first commit error; poisons the writer
	progSig  cluster.Signal
	flusher  bool // flusher daemon running

	// committed counts bytes durably appended to the blob; pending
	// counts bytes handed to the pipeline and not yet resolved. Both
	// back the exact consumed-count computation on failure.
	committed int64
	pending   int64
}

func (f *FS) newWriter(path string, b *core.Blob) *writer {
	return &writer{fs: f, path: path, b: b}
}

func (w *writer) progSigLocked() cluster.Signal {
	if w.progSig == nil {
		w.progSig = w.fs.svc.env.NewSignal()
	}
	return w.progSig
}

// dropBufferedLocked rolls still-buffered bytes out of the accepted
// count: once a commit has failed they can never reach the blob.
func (w *writer) dropBufferedLocked() {
	w.written -= int64(len(w.buf)) + w.synthBuf
	w.buf = nil
	w.synthBuf = 0
}

// consumedLocked settles a failed Write, ReadFrom or WriteSynthetic
// call, once the bytes that will never reach the blob are rolled out of
// the accepted count: it returns how many of the call's callLen bytes
// durably reached the blob. base and queuedAtEntry snapshot
// committed/pending at call entry, pre is the buffered byte count at
// entry; commits are FIFO, so whatever landed beyond the entry backlog
// and the pre-existing buffer is the committed prefix of this call's
// payload. By the time the error is observed every successful commit
// has already been counted (failures happen after all earlier
// successes), so the result is exact.
func (w *writer) consumedLocked(base, queuedAtEntry, pre, callLen int64) int64 {
	return min(max(w.committed-base-queuedAtEntry-pre, 0), callLen)
}

// commitLocked hands one block to the commit path. w.mu must be held;
// it is released across blocking operations and held again on return.
// A non-nil error means the block did not — and never will — reach the
// blob; the caller owns rolling its bytes back.
func (w *writer) commitLocked(b pendingBlock) error {
	if w.fs.svc.cfg.DisableCache {
		// No cache, no pipeline: the block commits synchronously in
		// the caller.
		w.mu.Unlock()
		_, err := w.commitRun([]pendingBlock{b})
		w.mu.Lock()
		if err != nil {
			if w.flushErr == nil {
				w.flushErr = err
			}
		} else {
			w.committed += b.size
		}
		return err
	}
	for w.flushErr == nil && w.inFlight >= w.fs.svc.cfg.MaxInFlightBlocks {
		sig := w.progSigLocked()
		w.mu.Unlock()
		sig.Wait()
		w.mu.Lock()
	}
	if err := w.flushErr; err != nil {
		return err
	}
	w.queue = append(w.queue, b)
	w.inFlight++
	w.pending += b.size
	if !w.flusher {
		w.flusher = true
		w.fs.svc.env.Daemon(w.flushLoop)
	}
	return nil
}

// flushLoop is the writer's single background flusher: it drains the
// whole queue each round and commits it in batched runs — one ticket
// round trip, scatter fan-out and batched publish per run (the
// one flusher requesting all tickets is what keeps appends ordered).
// Runs are homogeneous (a writer may legally switch from real to
// synthetic blocks at a block boundary, and core.Blob.Append rejects
// mixed batches) and capped at half the in-flight window, so window
// slots free up between runs and the application keeps filling blocks
// while earlier ones commit. It records the first error, rolls failed
// and skipped blocks back out of the accepted byte count, hands every
// block of a run back to the service once the run has returned, and
// exits once the queue drains — commitLocked restarts it with the next
// block.
func (w *writer) flushLoop() {
	maxRun := w.fs.svc.cfg.MaxInFlightBlocks / 2
	if maxRun < 1 {
		maxRun = 1
	}
	for {
		w.mu.Lock()
		if len(w.queue) == 0 {
			w.flusher = false
			w.mu.Unlock()
			return
		}
		batch := w.queue
		w.queue = nil
		skip := w.flushErr != nil
		w.mu.Unlock()

		for start := 0; start < len(batch); {
			synth := batch[start].data == nil
			end := start + 1
			for end < len(batch) && end-start < maxRun && (batch[end].data == nil) == synth {
				end++
			}
			run := batch[start:end]
			start = end

			committed := 0
			var err error
			if !skip {
				committed, err = w.commitRun(run)
			}

			w.mu.Lock()
			for i, b := range run {
				if !skip && i < committed {
					w.committed += b.size
				} else {
					w.written -= b.size
				}
				w.inFlight--
				w.pending -= b.size
				w.fs.svc.recycle(b.data)
			}
			if err != nil {
				if w.flushErr == nil {
					w.flushErr = err
				}
				skip = true
			}
			sig := w.progSig
			w.progSig = nil
			w.mu.Unlock()
			if sig != nil {
				sig.Fire()
			}
		}
	}
}

// commitRun appends one homogeneous run of blocks to the blob as one
// batch (no writer locks held) and returns how many of them committed.
// It is the single commit site shared by the cache-less synchronous
// path and the background flusher.
func (w *writer) commitRun(run []pendingBlock) (int, error) {
	blocks := make([]core.AppendBlock, len(run))
	for i, b := range run {
		blocks[i] = core.AppendBlock{Data: b.data, Size: b.size}
	}
	versions, _, err := w.b.Append(blocks)
	return len(versions), err
}

// errFilling refuses a call that would touch the pending block while
// ReadFrom reads into it.
var errFilling = errors.New("bsfs: writer in use by ReadFrom")

// realLocked reports why the writer cannot take real bytes now, if it
// cannot.
func (w *writer) realLocked() error {
	if w.filling {
		return errFilling
	}
	if w.closed {
		return fmt.Errorf("bsfs: write to closed writer")
	}
	if w.synthetic {
		return fmt.Errorf("bsfs: mixing real and synthetic writes")
	}
	if err := w.flushErr; err != nil {
		w.dropBufferedLocked()
		return err
	}
	return nil
}

// roomLocked returns the pending block's free space, making some when
// it has none. A new block is sized for the want more bytes the caller
// expects, up to BlockSize, and a block that proves too small grows by
// doubling. Without a cache every fill is one commit, so the block is
// grown to want even past BlockSize: one Write, one commit.
func (w *writer) roomLocked(want int64) []byte {
	noCache := w.fs.svc.cfg.DisableCache
	if len(w.buf) == cap(w.buf) || noCache && int64(cap(w.buf)) < want {
		have := int64(len(w.buf))
		n := max(have+want, 2*have)
		if !noCache {
			n = min(n, w.fs.svc.cfg.BlockSize)
		}
		w.buf = append(w.fs.svc.block(n), w.buf...)
	}
	return w.buf[len(w.buf):cap(w.buf)]
}

// fillLocked accepts the m bytes just placed in the pending block's free
// space. A whole block goes to the commit path; without a cache every
// fill commits at once, and the block is refilled after its synchronous
// commit. A block whose commit fails is rolled out of the accepted
// count.
func (w *writer) fillLocked(m int) error {
	w.buf = w.buf[:len(w.buf)+m]
	w.written += int64(m)
	noCache := w.fs.svc.cfg.DisableCache
	if len(w.buf) == 0 || int64(len(w.buf)) < w.fs.svc.cfg.BlockSize && !noCache {
		return nil
	}
	b := pendingBlock{data: w.buf, size: int64(len(w.buf))}
	w.buf = nil
	if err := w.commitLocked(b); err != nil {
		w.written -= b.size
		return err
	}
	if noCache {
		w.buf = b.data[:0]
	}
	return nil
}

// Write implements io.Writer with block-granular commit through the
// pipeline: p is copied into the pending block (without a cache, p
// commits as one block before Write returns). On failure it returns
// exactly how many bytes of p durably reached the blob — blocks that
// failed, were skipped behind a failure, or still sat buffered are
// rolled back — and once any commit has failed, every later call
// returns that error with n=0.
func (w *writer) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.realLocked(); err != nil {
		return 0, err
	}
	pre, base, queued := int64(len(w.buf)), w.committed, w.pending
	for done := 0; done < len(p); {
		m := copy(w.roomLocked(int64(len(p)-done)), p[done:])
		done += m
		if err := w.fillLocked(m); err != nil {
			return int(w.consumedLocked(base, queued, pre, int64(len(p)))), err
		}
	}
	return len(p), nil
}

// ReadFrom implements io.ReaderFrom, so io.Copy into the writer reads
// the source straight into the pending block, with the commit pipeline
// and error contract of Write; n counts the bytes read. A block is
// sized for what the source has left when the source says (an
// *io.LimitedReader, as an upload body is), so a short upload never
// allocates a whole block. The source is read without the writer's
// lock held, so the flusher settles commits meanwhile; a Write,
// WriteSynthetic, ReadFrom or Close from another goroutine during that
// read is refused, as it would touch the block being read into. A read
// error other than io.EOF is returned with the bytes read before it
// still buffered, for Close to commit.
func (w *writer) ReadFrom(r io.Reader) (n int64, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.realLocked(); err != nil {
		return 0, err
	}
	pre, base, queued := int64(len(w.buf)), w.committed, w.pending
	lr, sized := r.(*io.LimitedReader)
	for {
		want := w.fs.svc.cfg.BlockSize
		if sized {
			if lr.N <= 0 {
				return n, nil
			}
			want = min(want, lr.N)
		}
		room := w.roomLocked(want)
		w.filling = true
		w.mu.Unlock()
		m, rerr := r.Read(room)
		w.mu.Lock()
		w.filling = false
		n += int64(m)
		if err := w.fillLocked(m); err != nil {
			return w.consumedLocked(base, queued, pre, n), err
		}
		if err := w.flushErr; err != nil {
			w.dropBufferedLocked()
			return w.consumedLocked(base, queued, pre, n), err
		}
		if errors.Is(rerr, io.EOF) {
			return n, nil
		}
		if rerr != nil {
			return n, rerr
		}
	}
}

// WriteSynthetic implements fsapi.Writer, with the same pipeline and
// error contract as Write.
func (w *writer) WriteSynthetic(n int64) (int64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.filling {
		return 0, errFilling
	}
	if w.closed {
		return 0, fmt.Errorf("bsfs: write to closed writer")
	}
	if len(w.buf) > 0 {
		return 0, fmt.Errorf("bsfs: mixing real and synthetic writes")
	}
	if err := w.flushErr; err != nil {
		w.dropBufferedLocked()
		return 0, err
	}
	w.synthetic = true
	pre, base, queued := w.synthBuf, w.committed, w.pending
	w.synthBuf += n
	w.written += n
	bs := w.fs.svc.cfg.BlockSize
	if w.fs.svc.cfg.DisableCache {
		bs = 1
	}
	for w.synthBuf >= bs {
		chunk := bs
		if w.fs.svc.cfg.DisableCache {
			chunk = w.synthBuf
		}
		w.synthBuf -= chunk
		if err := w.commitLocked(pendingBlock{size: chunk}); err != nil {
			w.written -= chunk + w.synthBuf
			w.synthBuf = 0
			return w.consumedLocked(base, queued, pre, n), err
		}
	}
	return n, nil
}

// Close commits the buffered remainder, drains the pipeline, surfaces
// the first deferred commit error, and commits the file size. A Close
// during a ReadFrom's read is refused and leaves the writer open.
func (w *writer) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	if w.filling {
		w.mu.Unlock()
		return errFilling
	}
	w.closed = true
	var closeErr error
	if w.flushErr != nil {
		w.dropBufferedLocked()
	}
	if w.flushErr == nil {
		var tail *pendingBlock
		if len(w.buf) > 0 {
			tail = &pendingBlock{data: w.buf, size: int64(len(w.buf))}
			w.buf = nil
		} else if w.synthBuf > 0 {
			tail = &pendingBlock{size: w.synthBuf}
			w.synthBuf = 0
		}
		if tail != nil {
			if err := w.commitLocked(*tail); err != nil {
				w.written -= tail.size
				closeErr = err
			}
		}
	}
	for w.inFlight > 0 {
		sig := w.progSigLocked()
		w.mu.Unlock()
		sig.Wait()
		w.mu.Lock()
	}
	if closeErr == nil {
		closeErr = w.flushErr
	}
	w.buf = nil // without a cache, the request-sized block kept for refills
	w.mu.Unlock()
	if closeErr != nil {
		return closeErr
	}
	w.fs.rtt()
	_, size, err := w.b.Latest()
	if err != nil {
		return err
	}
	return w.fs.svc.ns.SetSize(w.path, size)
}

// ---------------------------------------------------------------------
// Reader: whole-block prefetch cache (§III.B — "prefetches a whole
// block when the requested data is not already cached"), plus
// background readahead: a sequential scan that reaches block bi kicks
// off a concurrent fetch of block bi+1, overlapping the next block's
// provider I/O with consumption of the current one.

type reader struct {
	fs   *FS
	b    *core.Blob
	ver  core.Version
	size int64

	mu       sync.Mutex
	pos      int64
	closed   bool
	lastBi   int64                    // last block accessed (-1 before any)
	blocks   map[int64][]byte         // block index -> data (nil entry = synthetic fetched)
	order    []int64                  // LRU, most recent last
	inflight map[int64]cluster.Signal // fetches in progress, fired on completion
}

func (f *FS) newReader(b *core.Blob, v core.Version, size int64) *reader {
	return &reader{
		fs: f, b: b, ver: v, size: size,
		lastBi:   -1,
		blocks:   map[int64][]byte{},
		inflight: map[int64]cluster.Signal{},
	}
}

// Size implements fsapi.Reader.
func (r *reader) Size() int64 { return r.size }

// Read implements io.Reader (sequential).
func (r *reader) Read(p []byte) (int, error) {
	r.mu.Lock()
	pos := r.pos
	r.mu.Unlock()
	n, err := r.ReadAt(p, pos)
	r.mu.Lock()
	r.pos += int64(n)
	r.mu.Unlock()
	if err == nil && n == 0 && len(p) > 0 {
		return 0, io.EOF
	}
	return n, err
}

// ReadAt implements io.ReaderAt with whole-block prefetch.
func (r *reader) ReadAt(p []byte, off int64) (int, error) {
	if off >= r.size {
		return 0, io.EOF
	}
	want := int64(len(p))
	if off+want > r.size {
		want = r.size - off
	}
	if r.fs.svc.cfg.DisableCache {
		n, err := r.b.ReadAt(p[:want], off, core.AtVersion(r.ver))
		if err != nil {
			return 0, err
		}
		if n < int64(len(p)) {
			return int(n), io.EOF
		}
		return int(n), nil
	}
	bs := r.fs.svc.cfg.BlockSize
	var done int64
	for done < want {
		at := off + done
		bi := at / bs
		data, err := r.block(bi, false)
		if err != nil {
			return int(done), err
		}
		from := at - bi*bs
		n := copy(p[done:want], data[from:])
		if n == 0 {
			break
		}
		done += int64(n)
	}
	if done < int64(len(p)) {
		return int(done), io.EOF
	}
	return int(done), nil
}

// ReadSyntheticAt implements fsapi.Reader.
func (r *reader) ReadSyntheticAt(off, length int64) (int64, error) {
	if off >= r.size || length <= 0 {
		return 0, nil
	}
	if off+length > r.size {
		length = r.size - off
	}
	if r.fs.svc.cfg.DisableCache {
		return r.b.ReadAt(nil, off, core.AtVersion(r.ver), core.Synthetic(length))
	}
	bs := r.fs.svc.cfg.BlockSize
	var done int64
	for done < length {
		bi := (off + done) / bs
		if _, err := r.block(bi, true); err != nil {
			return done, err
		}
		next := (bi + 1) * bs
		if next > off+length {
			next = off + length
		}
		done = next - off
	}
	return length, nil
}

// block returns block bi, fetching (prefetching the whole block) on
// miss. synthetic fetches cover the block without materializing. A
// miss that finds a readahead of bi already in flight waits for it
// instead of fetching the same bytes twice.
func (r *reader) block(bi int64, synthetic bool) ([]byte, error) {
	r.mu.Lock()
	for {
		if data, ok := r.blocks[bi]; ok {
			// A nil entry is a synthetic placeholder: it covers the
			// block for synthetic traversal but holds no bytes, so a
			// real read must drop it and fetch the data for real
			// (synthetic readahead would otherwise poison later reads).
			if data != nil || synthetic {
				r.touch(bi)
				r.noteAccessLocked(bi, synthetic)
				r.mu.Unlock()
				return data, nil
			}
			r.dropLocked(bi)
			break
		}
		sig, ok := r.inflight[bi]
		if !ok {
			break
		}
		r.mu.Unlock()
		sig.Wait()
		r.mu.Lock()
		// Re-check: on readahead success the block is cached; on
		// failure it is absent again and we fall through to a
		// foreground fetch that reports its own error.
	}
	sig := r.fs.svc.env.NewSignal()
	r.inflight[bi] = sig
	r.noteAccessLocked(bi, synthetic)
	r.mu.Unlock()
	data, err := r.fetch(bi, synthetic)
	r.mu.Lock()
	delete(r.inflight, bi)
	if err == nil && !r.closed {
		r.insertLocked(bi, data)
	}
	r.mu.Unlock()
	sig.Fire()
	if err != nil {
		return nil, err
	}
	return data, nil
}

// fetch reads one whole block from BlobSeer (no reader locks held).
func (r *reader) fetch(bi int64, synthetic bool) ([]byte, error) {
	bs := r.fs.svc.cfg.BlockSize
	start := bi * bs
	blockLen := bs
	if start+blockLen > r.size {
		blockLen = r.size - start
	}
	if synthetic {
		_, err := r.b.ReadAt(nil, start, core.AtVersion(r.ver), core.Synthetic(blockLen))
		return nil, err
	}
	data := make([]byte, blockLen)
	if _, err := r.b.ReadAt(data, start, core.AtVersion(r.ver)); err != nil {
		return nil, err
	}
	return data, nil
}

// insertLocked caches a fetched block with LRU eviction. A synthetic
// placeholder (nil) already present is upgraded to real bytes.
func (r *reader) insertLocked(bi int64, data []byte) {
	if old, ok := r.blocks[bi]; ok {
		if old == nil && data != nil {
			r.blocks[bi] = data
		}
		return
	}
	r.blocks[bi] = data
	r.order = append(r.order, bi)
	// Two slots: the block being consumed and its readahead.
	const cacheBlocks = 2
	for len(r.order) > cacheBlocks {
		evict := r.order[0]
		r.order = r.order[1:]
		delete(r.blocks, evict)
	}
}

// noteAccessLocked tracks the scan position and, when the access
// continues a forward sequential scan, starts a background readahead
// of the next block. Readahead failures are dropped: the foreground
// read of that block retries and surfaces the error itself.
func (r *reader) noteAccessLocked(bi int64, synthetic bool) {
	seq := bi == r.lastBi+1
	r.lastBi = bi
	if !seq || r.closed || r.fs.svc.cfg.DisableCache {
		return
	}
	next := bi + 1
	if next*r.fs.svc.cfg.BlockSize >= r.size {
		return
	}
	if _, ok := r.blocks[next]; ok {
		return
	}
	if _, ok := r.inflight[next]; ok {
		return
	}
	sig := r.fs.svc.env.NewSignal()
	r.inflight[next] = sig
	r.fs.svc.env.Daemon(func() {
		data, err := r.fetch(next, synthetic)
		r.mu.Lock()
		delete(r.inflight, next)
		if err == nil && !r.closed {
			r.insertLocked(next, data)
		}
		r.mu.Unlock()
		sig.Fire()
	})
}

// dropLocked evicts one block from the cache.
func (r *reader) dropLocked(bi int64) {
	delete(r.blocks, bi)
	for i, b := range r.order {
		if b == bi {
			r.order = append(r.order[:i], r.order[i+1:]...)
			return
		}
	}
}

func (r *reader) touch(bi int64) {
	for i, b := range r.order {
		if b == bi {
			r.order = append(append(r.order[:i:i], r.order[i+1:]...), bi)
			return
		}
	}
}

// Close implements fsapi.Reader. In-flight readahead completes in the
// background and discards its result.
func (r *reader) Close() error {
	r.mu.Lock()
	r.closed = true
	r.blocks = nil
	r.order = nil
	r.mu.Unlock()
	return nil
}
