// Package hdfs implements the baseline the paper compares against: a
// Hadoop Distributed File System look-alike with a centralized
// namenode, chunk-holding datanodes, and the placement policy the paper
// describes (§IV.B): the first replica of a chunk is written to the
// client's local datanode, the second to a datanode in the same rack,
// and the third to a randomly chosen datanode in a different rack.
//
// Semantics follow HDFS circa the paper (§II.C): single writer per
// file, no appends, write-once (a created, written and closed file can
// not be overwritten), files become readable when closed. Chunk writes
// go through a store-and-forward replica pipeline that includes each
// datanode's disk — the synchronous persistence that, combined with
// whole-chunk placement, is what the paper's evaluation shows losing to
// BlobSeer's RAM-first striping under concurrency.
package hdfs

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"sync"

	"repro/internal/cluster"
	"repro/internal/fsapi"
	"repro/internal/pagestore"
	"repro/internal/store"
)

// ErrSingleWriter is returned on attempts to reopen a file for writing.
var ErrSingleWriter = errors.New("hdfs: file already exists (write-once, single writer)")

// ErrNotClosed is returned when opening a file still being written.
var ErrNotClosed = errors.New("hdfs: file not yet closed by its writer")

// Config parameterizes an HDFS deployment.
type Config struct {
	NameNode  cluster.NodeID
	DataNodes []cluster.NodeID
	// ChunkSize is the block size (default 64 MB).
	ChunkSize int64
	// Replication is the chunk replica count (default 3, HDFS's
	// default; the paper's explanation of HDFS's write behaviour
	// assumes it).
	Replication int
	// MemCapacity bounds each datanode's RAM cache (0 = unlimited).
	MemCapacity int64
	// WriteThrough includes datanode disks in the write pipeline
	// (HDFS's effective behaviour: chunk files and checksums are
	// written through the local file system before the pipeline acks).
	// Disabling it is the A4 ablation: RAM-buffered datanodes.
	WriteThrough bool
	// Store selects the persistent backend tier beneath each datanode's
	// chunk cache ("disk:<path>", "mem:", "null:" — see internal/store),
	// scoped per datanode with store.SubSpec: evicted chunks read back
	// from the backend and a reopened deployment recovers its entries —
	// the same durability the BSFS providers get from core's
	// ProviderConfig.Store. Empty means RAM-only datanodes.
	Store string
}

func (c *Config) fillDefaults() {
	if c.ChunkSize <= 0 {
		c.ChunkSize = 64 << 20
	}
	if c.Replication < 1 {
		c.Replication = 3
	}
	if c.Replication > len(c.DataNodes) {
		c.Replication = len(c.DataNodes)
	}
}

// chunkMeta is the namenode's record of one chunk.
type chunkMeta struct {
	id   uint64
	size int64
	locs []cluster.NodeID // replica datanodes, pipeline order
}

// fileMeta is the namenode payload for one file.
type fileMeta struct {
	mu       sync.Mutex
	chunks   []chunkMeta
	size     int64
	complete bool
}

// Deployment is a running HDFS fleet.
type Deployment struct {
	env cluster.Env
	cfg Config
	nn  *nameNode
	dns map[cluster.NodeID]*dataNode
}

// NewDeployment starts a namenode and datanodes.
func NewDeployment(env cluster.Env, cfg Config) (*Deployment, error) {
	cfg.fillDefaults()
	if len(cfg.DataNodes) == 0 {
		return nil, fmt.Errorf("hdfs: deployment needs datanodes")
	}
	d := &Deployment{
		env: env,
		cfg: cfg,
		nn:  newNameNode(env, cfg),
		dns: make(map[cluster.NodeID]*dataNode, len(cfg.DataNodes)),
	}
	for _, n := range cfg.DataNodes {
		st, err := pagestore.Open(pagestore.Config{
			MemCapacity: cfg.MemCapacity,
			Spec:        store.SubSpec(cfg.Store, fmt.Sprintf("datanode-%d", n)),
		})
		if err != nil {
			return nil, fmt.Errorf("hdfs: datanode on node %d: %w", n, err)
		}
		d.dns[n] = &dataNode{env: env, node: n, store: st}
	}
	return d, nil
}

// Close releases the datanode stores (their write-ahead logs, under a
// disk Config.Store). In-memory deployments need no Close.
func (d *Deployment) Close() error {
	var first error
	for _, dn := range d.dns {
		if err := dn.store.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// NewFS returns a file-system client bound to a node.
func (d *Deployment) NewFS(node cluster.NodeID) *FS {
	return &FS{d: d, node: node}
}

// nameNode keeps the namespace and chunk locations (GFS/HDFS master).
type nameNode struct {
	env  cluster.Env
	node cluster.NodeID
	cfg  Config
	ns   *fsapi.Namespace

	mu        sync.Mutex
	nextChunk uint64
	rng       *rand.Rand
	isDN      map[cluster.NodeID]bool
}

func newNameNode(env cluster.Env, cfg Config) *nameNode {
	isDN := make(map[cluster.NodeID]bool, len(cfg.DataNodes))
	for _, n := range cfg.DataNodes {
		isDN[n] = true
	}
	return &nameNode{
		env:  env,
		node: cfg.NameNode,
		cfg:  cfg,
		ns:   fsapi.NewNamespace(),
		rng:  rand.New(rand.NewSource(1)), // fixed seed: replica placement is deterministic
		isDN: isDN,
	}
}

// allocateChunk picks replica locations per the paper's description of
// HDFS placement: local first, then same rack, then a different rack.
func (nn *nameNode) allocateChunk(client cluster.NodeID, size int64) chunkMeta {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	id := nn.nextChunk
	nn.nextChunk++
	locs := make([]cluster.NodeID, 0, nn.cfg.Replication)
	used := map[cluster.NodeID]bool{}
	add := func(n cluster.NodeID) {
		if !used[n] {
			used[n] = true
			locs = append(locs, n)
		}
	}
	// First replica: the writer's node when it runs a datanode,
	// otherwise a random datanode.
	if nn.isDN[client] {
		add(client)
	} else {
		add(nn.randomDNLocked(used, -1))
	}
	// Second replica: same rack as the first.
	if len(locs) < nn.cfg.Replication {
		add(nn.randomDNLocked(used, nn.env.Rack(locs[0])))
	}
	// Remaining replicas: random datanodes in other racks.
	for len(locs) < nn.cfg.Replication {
		add(nn.randomDNLocked(used, -2-nn.env.Rack(locs[0])))
	}
	return chunkMeta{id: id, size: size, locs: locs}
}

// randomDNLocked picks a random datanode. rack >= 0 restricts to that
// rack; rack <= -2 excludes rack (-2 - rack); rack == -1 is unrestricted.
// Falls back to any unused datanode when the constraint is unsatisfiable.
func (nn *nameNode) randomDNLocked(used map[cluster.NodeID]bool, rack int) cluster.NodeID {
	var pool []cluster.NodeID
	for _, n := range nn.cfg.DataNodes {
		if used[n] {
			continue
		}
		r := nn.env.Rack(n)
		switch {
		case rack >= 0 && r != rack:
			continue
		case rack <= -2 && r == -2-rack:
			continue
		}
		pool = append(pool, n)
	}
	if len(pool) == 0 {
		for _, n := range nn.cfg.DataNodes {
			if !used[n] {
				pool = append(pool, n)
			}
		}
	}
	if len(pool) == 0 {
		return nn.cfg.DataNodes[0]
	}
	return pool[nn.rng.Intn(len(pool))]
}

// dataNode stores chunk replicas on one node.
type dataNode struct {
	env   cluster.Env
	node  cluster.NodeID
	store *pagestore.Store
}

// chunkKey renders a chunk's store key. It sits on the per-chunk hot
// path (every replica put, get and delete), so it formats with
// strconv.AppendUint into a stack-sized buffer instead of
// fmt.Sprintf's reflection-driven path — see BenchmarkChunkKey.
func chunkKey(id uint64) string {
	buf := make([]byte, 0, 24)
	buf = append(buf, 'c', '/')
	return string(strconv.AppendUint(buf, id, 10))
}

// put stores a chunk replica; write-through deployments persist
// immediately (the pipeline already charged the disk), so the entry is
// committed clean to keep cache accounting consistent.
func (dn *dataNode) put(id uint64, data []byte, size int64, writeThrough bool) error {
	key := chunkKey(id)
	var err error
	if data == nil {
		err = dn.store.PutSynthetic(key, size)
	} else {
		err = dn.store.Put(key, data)
	}
	if err != nil {
		return err
	}
	if writeThrough {
		batch, _ := dn.store.TakeDirty(0)
		return dn.store.CommitFlush(batch)
	}
	return nil
}

// get reads a chunk replica, reporting whether it came from disk.
func (dn *dataNode) get(id uint64) ([]byte, int64, bool, error) {
	data, meta, err := dn.store.GetInto(chunkKey(id), nil)
	if err != nil {
		return nil, 0, false, fmt.Errorf("datanode %d: %w", dn.node, err)
	}
	return data, meta.Size, !meta.Resident, nil
}

// FS implements fsapi.FileSystem for one client node.
type FS struct {
	d    *Deployment
	node cluster.NodeID
}

var _ fsapi.FileSystem = (*FS)(nil)

// Name implements fsapi.FileSystem.
func (f *FS) Name() string { return "hdfs" }

// BlockSize implements fsapi.FileSystem.
func (f *FS) BlockSize() int64 { return f.d.cfg.ChunkSize }

func (f *FS) rtt() { f.d.env.RTT(f.node, f.d.nn.node) }

// Create registers a new file; HDFS files are write-once.
// fsapi.AtVersion is rejected.
func (f *FS) Create(path string, opts ...fsapi.OpenOption) (fsapi.Writer, error) {
	s := fsapi.ApplyOpenOptions(opts)
	if s.HasVersion {
		return nil, fmt.Errorf("%w: hdfs has no versioning", fsapi.ErrNotSupported)
	}
	f.rtt()
	meta := &fileMeta{}
	if err := f.d.nn.ns.CreateFile(path, meta); err != nil {
		if errors.Is(err, fsapi.ErrExists) {
			return nil, fmt.Errorf("%w: %s", ErrSingleWriter, path)
		}
		return nil, err
	}
	return &writer{fs: f, path: path, meta: meta}, nil
}

// Append implements fsapi.FileSystem: HDFS has no append (§II.C —
// "once a file is created, written and closed, the data cannot be
// overwritten or appended to").
func (f *FS) Append(path string, opts ...fsapi.OpenOption) (fsapi.Writer, error) {
	return nil, fmt.Errorf("%w: hdfs append", fsapi.ErrNotSupported)
}

func (f *FS) fileMeta(path string) (*fileMeta, error) {
	f.rtt()
	payload, err := f.d.nn.ns.Payload(path)
	if err != nil {
		return nil, err
	}
	return payload.(*fileMeta), nil
}

// Open returns a reader; the file must have been closed by its writer.
func (f *FS) Open(path string) (fsapi.Reader, error) { return f.OpenAt(path) }

// OpenAt implements fsapi.FileSystem. HDFS keeps no version history,
// so a pinned snapshot (fsapi.AtVersion) returns the typed
// fsapi.ErrNotSupported — the contract's way of saying the baseline
// cannot express the workload, which is itself the paper's point.
func (f *FS) OpenAt(path string, opts ...fsapi.OpenOption) (fsapi.Reader, error) {
	s := fsapi.ApplyOpenOptions(opts)
	if s.HasVersion {
		return nil, fmt.Errorf("%w: hdfs snapshot read", fsapi.ErrNotSupported)
	}
	meta, err := f.fileMeta(path)
	if err != nil {
		return nil, err
	}
	meta.mu.Lock()
	defer meta.mu.Unlock()
	if !meta.complete {
		return nil, fmt.Errorf("%w: %s", ErrNotClosed, path)
	}
	chunks := append([]chunkMeta(nil), meta.chunks...)
	return &reader{fs: f, chunks: chunks, size: meta.size, curIdx: -1}, nil
}

// Stat implements fsapi.FileSystem.
func (f *FS) Stat(path string) (fsapi.FileInfo, error) {
	f.rtt()
	return f.d.nn.ns.Stat(path)
}

// List implements fsapi.FileSystem.
func (f *FS) List(path string) ([]fsapi.FileInfo, error) {
	f.rtt()
	return f.d.nn.ns.List(path)
}

// Mkdir implements fsapi.FileSystem.
func (f *FS) Mkdir(path string) error {
	f.rtt()
	return f.d.nn.ns.Mkdir(path)
}

// Rename implements fsapi.FileSystem.
func (f *FS) Rename(oldPath, newPath string) error {
	f.rtt()
	return f.d.nn.ns.Rename(oldPath, newPath)
}

// Delete implements fsapi.FileSystem; chunk replicas are released.
func (f *FS) Delete(path string) error {
	f.rtt()
	payload, err := f.d.nn.ns.Delete(path)
	if err != nil {
		return err
	}
	if meta, ok := payload.(*fileMeta); ok && meta != nil {
		meta.mu.Lock()
		defer meta.mu.Unlock()
		for _, c := range meta.chunks {
			for _, loc := range c.locs {
				f.d.dns[loc].store.Delete(chunkKey(c.id))
			}
		}
	}
	return nil
}

// BlockLocations implements fsapi.FileSystem from namenode chunk
// metadata.
func (f *FS) BlockLocations(path string, off, length int64) ([]fsapi.BlockLocation, error) {
	meta, err := f.fileMeta(path)
	if err != nil {
		return nil, err
	}
	meta.mu.Lock()
	defer meta.mu.Unlock()
	var out []fsapi.BlockLocation
	var pos int64
	for _, c := range meta.chunks {
		if pos+c.size > off && pos < off+length {
			out = append(out, fsapi.BlockLocation{
				Offset: pos,
				Length: c.size,
				Hosts:  append([]cluster.NodeID(nil), c.locs...),
			})
		}
		pos += c.size
	}
	return out, nil
}

// ---------------------------------------------------------------------
// Writer: chunk-buffered single writer with a replica pipeline.

type writer struct {
	fs   *FS
	path string
	meta *fileMeta

	mu        sync.Mutex
	buf       []byte
	synthBuf  int64
	synthetic bool
	closed    bool
}

// Write implements io.Writer.
func (w *writer) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, fmt.Errorf("hdfs: write to closed writer")
	}
	if w.synthetic {
		return 0, fmt.Errorf("hdfs: mixing real and synthetic writes")
	}
	w.buf = append(w.buf, p...)
	cs := w.fs.d.cfg.ChunkSize
	for int64(len(w.buf)) >= cs {
		//bsfs-vet:allow lockedblock -- w.mu models HDFS's single-writer lease: one goroutine per handle, never contended across the pipeline
		if err := w.commitChunk(w.buf[:cs], cs); err != nil {
			return 0, err
		}
		w.buf = append([]byte(nil), w.buf[cs:]...)
	}
	return len(p), nil
}

// WriteSynthetic implements fsapi.Writer.
func (w *writer) WriteSynthetic(n int64) (int64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, fmt.Errorf("hdfs: write to closed writer")
	}
	if len(w.buf) > 0 {
		return 0, fmt.Errorf("hdfs: mixing real and synthetic writes")
	}
	w.synthetic = true
	w.synthBuf += n
	cs := w.fs.d.cfg.ChunkSize
	for w.synthBuf >= cs {
		//bsfs-vet:allow lockedblock -- w.mu models HDFS's single-writer lease: one goroutine per handle, never contended across the pipeline
		if err := w.commitChunk(nil, cs); err != nil {
			return 0, err
		}
		w.synthBuf -= cs
	}
	return n, nil
}

// commitChunk allocates a chunk at the namenode and pushes the payload
// down the replica pipeline.
func (w *writer) commitChunk(data []byte, size int64) error {
	w.fs.rtt() // namenode round trip for allocation
	c := w.fs.d.nn.allocateChunk(w.fs.node, size)
	// Pipeline: client -> dn1 -> dn2 -> ...; disks included when
	// write-through (HDFS's effective behaviour).
	w.fs.d.env.Pipeline(w.fs.node, c.locs, size, w.fs.d.cfg.WriteThrough)
	var cp []byte
	if data != nil {
		cp = append([]byte(nil), data...)
	}
	for _, loc := range c.locs {
		dn := w.fs.d.dns[loc]
		if dn == nil {
			return fmt.Errorf("hdfs: no datanode on %d", loc)
		}
		if err := dn.put(c.id, cp, size, w.fs.d.cfg.WriteThrough); err != nil {
			return err
		}
	}
	w.meta.mu.Lock()
	w.meta.chunks = append(w.meta.chunks, c)
	w.meta.size += size
	w.meta.mu.Unlock()
	return nil
}

// Close flushes the tail chunk and marks the file complete.
func (w *writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	if len(w.buf) > 0 {
		//bsfs-vet:allow lockedblock -- w.mu models HDFS's single-writer lease: one goroutine per handle, never contended across the pipeline
		if err := w.commitChunk(w.buf, int64(len(w.buf))); err != nil {
			return err
		}
		w.buf = nil
	}
	if w.synthBuf > 0 {
		//bsfs-vet:allow lockedblock -- w.mu models HDFS's single-writer lease: one goroutine per handle, never contended across the pipeline
		if err := w.commitChunk(nil, w.synthBuf); err != nil {
			return err
		}
		w.synthBuf = 0
	}
	//bsfs-vet:allow lockedblock -- w.mu models HDFS's single-writer lease: one goroutine per handle, never contended across the pipeline
	w.fs.rtt()
	w.meta.mu.Lock()
	w.meta.complete = true
	size := w.meta.size
	w.meta.mu.Unlock()
	return w.fs.d.nn.ns.SetSize(w.path, size)
}

// ---------------------------------------------------------------------
// Reader: streaming chunk reads from the closest replica.

type reader struct {
	fs     *FS
	chunks []chunkMeta
	size   int64

	mu      sync.Mutex
	pos     int64
	curIdx  int    // index of the cached chunk, -1 if none
	curData []byte // real bytes of the cached chunk (nil if synthetic)
}

// Size implements fsapi.Reader.
func (r *reader) Size() int64 { return r.size }

// chunkAt locates the chunk containing byte offset off.
func (r *reader) chunkAt(off int64) (idx int, start int64) {
	var pos int64
	for i, c := range r.chunks {
		if off < pos+c.size {
			return i, pos
		}
		pos += c.size
	}
	return -1, 0
}

// pickReplica chooses the closest replica: local, same rack, then
// first.
func (r *reader) pickReplica(locs []cluster.NodeID) cluster.NodeID {
	for _, l := range locs {
		if l == r.fs.node {
			return l
		}
	}
	for _, l := range locs {
		if r.fs.d.env.Rack(l) == r.fs.d.env.Rack(r.fs.node) {
			return l
		}
	}
	return locs[0]
}

// fetchChunk pulls one whole chunk from a replica, charging the
// network and the replica's disk on a cache miss.
func (r *reader) fetchChunk(idx int, materialize bool) ([]byte, error) {
	c := r.chunks[idx]
	src := r.pickReplica(c.locs)
	dn := r.fs.d.dns[src]
	data, size, fromDisk, err := dn.get(c.id)
	if err != nil {
		return nil, err
	}
	diskFrac := 0.0
	if fromDisk {
		diskFrac = 1.0
	}
	r.fs.d.env.RTT(r.fs.node, src)
	r.fs.d.env.Gather(r.fs.node, []cluster.NodeID{src}, size, diskFrac)
	if materialize && data == nil {
		return nil, fmt.Errorf("hdfs: chunk %d is synthetic; use ReadSyntheticAt", c.id)
	}
	return data, nil
}

// ReadAt implements io.ReaderAt, streaming chunk by chunk.
func (r *reader) ReadAt(p []byte, off int64) (int, error) {
	if off >= r.size {
		return 0, io.EOF
	}
	want := int64(len(p))
	if off+want > r.size {
		want = r.size - off
	}
	var done int64
	for done < want {
		at := off + done
		idx, start := r.chunkAt(at)
		if idx < 0 {
			break
		}
		r.mu.Lock()
		if r.curIdx != idx || r.curData == nil {
			//bsfs-vet:allow lockedblock -- r.mu guards the one-chunk cache of a single-goroutine reader handle; the fetch's wake-up comes from the engine timer, not a mutex contender
			data, err := r.fetchChunk(idx, true)
			if err != nil {
				r.mu.Unlock()
				return int(done), err
			}
			r.curIdx = idx
			r.curData = data
		}
		n := copy(p[done:want], r.curData[at-start:])
		r.mu.Unlock()
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

// Read implements io.Reader.
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

// ReadSyntheticAt implements fsapi.Reader: sequential whole-chunk
// fetches over the covered range.
func (r *reader) ReadSyntheticAt(off, length int64) (int64, error) {
	if off >= r.size || length <= 0 {
		return 0, nil
	}
	if off+length > r.size {
		length = r.size - off
	}
	var done int64
	for done < length {
		idx, start := r.chunkAt(off + done)
		if idx < 0 {
			break
		}
		if _, err := r.fetchChunk(idx, false); err != nil {
			return done, err
		}
		next := start + r.chunks[idx].size
		if next > off+length {
			next = off + length
		}
		done = next - off
	}
	return done, nil
}

// Close implements fsapi.Reader.
func (r *reader) Close() error {
	r.mu.Lock()
	r.curData = nil
	r.curIdx = -1
	r.mu.Unlock()
	return nil
}
