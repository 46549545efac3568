// tcpfiles.go is the tcp-files workload: whole files of real bytes
// through rpcnet over loopback TCP into a disk-backed deployment whose
// page cache is a sixth of the data. The same round also runs one and
// two layers down (fsapi, core) for the layer staircase.
package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/bsfs"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fsapi"
	"repro/internal/rpcnet"
)

// clients is the load: two goroutines, two connections (nproc is 2).
const clients = 2

type tcpSizes struct {
	providers int
	pageSize  int64
	blockSize int64
	fileSize  int64
	memCap    int64 // per provider
	preload   int   // files written during set-up
	writes    int   // files written in the timed write phase
	rounds    int   // measured rounds in a run of nominalSeconds
}

func (s tcpSizes) footprint() int64 {
	// Pattern buffers, the providers' caches, one in-flight file per
	// client on each side of the wire, and the log's share of the OS
	// page cache.
	files := int64(s.preload + s.writes)
	return int64(clients*clients)*s.fileSize + int64(s.providers)*s.memCap + 4*int64(clients)*s.fileSize + files*s.fileSize
}

// stair names the boundary a tcp-files round drives.
type stair int

const (
	stairRPC  stair = iota // rpcnet.Client over TCP
	stairFS                // fsapi.FileSystem from bsfs.Service.NewFS
	stairCore              // core.Blob in block-sized appends and reads
)

func (s stair) layer() string { return [...]string{"rpcnet", "bsfs", "core"}[s] }

// fileClient is the op stream's view of a stair: put a whole file, get
// a whole file.
type fileClient interface {
	put(path string, data []byte) error
	get(path string) ([]byte, error)
}

type rpcFiles struct{ c *rpcnet.Client }

func (f rpcFiles) put(path string, data []byte) error { return f.c.Put(path, data) }
func (f rpcFiles) get(path string) ([]byte, error)    { return f.c.Get(path, 0) }

type fsFiles struct {
	fs  fsapi.FileSystem
	buf []byte
}

func (f *fsFiles) put(path string, data []byte) error {
	w, err := f.fs.Create(path)
	if err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}

func (f *fsFiles) get(path string) ([]byte, error) {
	r, err := f.fs.Open(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	if int64(cap(f.buf)) < r.Size() {
		f.buf = make([]byte, r.Size())
	}
	buf := f.buf[:r.Size()]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// coreFiles maps paths to blobs and moves files in block-sized appends
// and reads, the calls bsfs makes underneath.
type coreFiles struct {
	c     *core.Client
	block int64
	page  int64
	blobs *sync.Map // path -> coreFile, shared by the round's clients
	buf   []byte
}

type coreFile struct {
	id   core.BlobID
	size int64
}

func (f *coreFiles) put(path string, data []byte) error {
	b, err := f.c.CreateBlob(f.page)
	if err != nil {
		return err
	}
	for off := int64(0); off < int64(len(data)); off += f.block {
		end := min(off+f.block, int64(len(data)))
		if _, _, err := b.Append(core.Blocks(data[off:end])); err != nil {
			return err
		}
	}
	f.blobs.Store(path, coreFile{id: b.ID(), size: int64(len(data))})
	return nil
}

func (f *coreFiles) get(path string) ([]byte, error) {
	v, ok := f.blobs.Load(path)
	if !ok {
		return nil, fmt.Errorf("no blob for %s", path)
	}
	cf := v.(coreFile)
	b, err := f.c.OpenBlob(cf.id)
	if err != nil {
		return nil, err
	}
	if int64(cap(f.buf)) < cf.size {
		f.buf = make([]byte, cf.size)
	}
	buf := f.buf[:cf.size]
	for off := int64(0); off < cf.size; off += f.block {
		end := min(off+f.block, cf.size)
		n, err := b.ReadAt(buf[off:end], off)
		if err != nil {
			return nil, err
		}
		if n != end-off {
			return nil, fmt.Errorf("short read of %s: %d of %d at %d", path, n, end-off, off)
		}
	}
	return buf, nil
}

// tcpPatterns holds each client goroutine's private copy of each
// writer's seeded file pattern. A file is its writer's pattern with
// (file, page) stamped at the head of every page, so every page of
// every file is distinct and a misplaced or stale page is caught.
type tcpPatterns struct {
	pageSize int64
	pat      [clients][clients][]byte // [goroutine][writer]
}

func newTCPPatterns(seed int64, s tcpSizes) *tcpPatterns {
	p := &tcpPatterns{pageSize: s.pageSize}
	for w := 0; w < clients; w++ {
		base := make([]byte, s.fileSize)
		newRNG(seed, uint64(100+w)).fill(base)
		for g := 0; g < clients; g++ {
			p.pat[g][w] = append([]byte(nil), base...)
		}
	}
	return p
}

// file returns goroutine g's buffer holding file f's expected bytes
// (valid until g's next call).
func (p *tcpPatterns) file(g, f int) []byte {
	buf := p.pat[g][f%clients]
	for off, page := int64(0), uint64(0); off+16 <= int64(len(buf)); off, page = off+p.pageSize, page+1 {
		binary.LittleEndian.PutUint64(buf[off:], uint64(f))
		binary.LittleEndian.PutUint64(buf[off+8:], page)
	}
	return buf
}

func filePath(f int) string { return fmt.Sprintf("/d/f%04d", f) }

// roundStats is what one round of any workload measures.
type roundStats struct {
	setup                 time.Duration
	wall                  time.Duration // the round's timed phases
	writeWall, readWall   time.Duration
	writeBytes, readBytes int64
	writeLat, readLat     []float64 // ms per op
	// sideMin/sideMax are the shortest and longest client elapsed
	// times summed over the timed phases: their ratio is the share of
	// the time both clients were running.
	sideMin, sideMax time.Duration
	mem              goStats
	traced           bool
}

// sides folds one phase's per-client elapsed times into sideMin/sideMax.
func (r *roundStats) sides(elapsed [clients]time.Duration) {
	r.sideMin += min(elapsed[0], elapsed[1])
	r.sideMax += max(elapsed[0], elapsed[1])
}

// flatten joins the clients' latency samples.
func flatten(perClient [clients][]float64) []float64 {
	var all []float64
	for _, lat := range perClient {
		all = append(all, lat...)
	}
	return all
}

// nodeRange lists nodes 1..n, where the providers live (node 0 hosts
// the masters and the clients).
func nodeRange(n int) []cluster.NodeID {
	nodes := make([]cluster.NodeID, n)
	for i := range nodes {
		nodes[i] = cluster.NodeID(i + 1)
	}
	return nodes
}

// cacheCounters sums the providers' page-cache counters.
func cacheCounters(dep *core.Deployment) (hits, misses, evictions uint64) {
	for _, p := range dep.ProviderList() {
		ps := p.Store().Stats()
		hits, misses, evictions = hits+ps.Hits, misses+ps.Misses, evictions+ps.Evictions
	}
	return hits, misses, evictions
}

// tcpRoundStats adds the counters read at the round's boundaries.
type tcpRoundStats struct {
	roundStats
	hits, misses, evictions uint64 // provider page caches, read phase
	storeBytes              int64  // bytes under the store directory after the forced flush
	userBytes               int64  // bytes the files hold
}

// tcpFilesRound runs one round at a stair: build everything, preload,
// timed write phase ending in a forced flush, timed read phase with
// every file verified, tear everything down.
func tcpFilesRound(cfg *config, s tcpSizes, st stair, pat *tcpPatterns, ops *opCounter) (tcpRoundStats, error) {
	var out tcpRoundStats
	t0 := time.Now()
	dir, err := cfg.scratchDir("tcp-files")
	if err != nil {
		return out, err
	}
	defer os.RemoveAll(dir)
	dep, err := core.NewDeployment(cluster.NewLocal(s.providers+1, 0), core.Options{
		PageSize:      s.pageSize,
		Replication:   1,
		ProviderNodes: nodeRange(s.providers),
		Provider:      core.ProviderConfig{MemCapacity: s.memCap, Store: "disk:" + dir},
	})
	if err != nil {
		return out, err
	}
	// Closing a disk store syncs its log; empty the files first so the
	// device is not handed a round of dead bytes (see truncateFiles).
	defer func() {
		truncateFiles(dir)
		dep.Close()
	}()
	svc := bsfs.NewService(dep, bsfs.Config{BlockSize: s.blockSize})

	var cl [clients]fileClient
	switch st {
	case stairRPC:
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return out, err
		}
		served := env.NewWaitGroup()
		served.Go(func() {
			if err := rpcnet.Serve(l, rpcnet.NewService(svc.NewFS(0))); err != nil && !errors.Is(err, net.ErrClosed) {
				cfg.logf("tcp-files: serve: %v", err)
			}
		})
		defer served.Wait()
		defer l.Close()
		for i := range cl {
			c, err := rpcnet.Dial(l.Addr().String())
			if err != nil {
				return out, err
			}
			defer c.Close()
			cl[i] = rpcFiles{c}
		}
	case stairFS:
		for i := range cl {
			cl[i] = &fsFiles{fs: svc.NewFS(0)}
		}
	case stairCore:
		blobs := new(sync.Map)
		for i := range cl {
			cl[i] = &coreFiles{c: dep.NewClient(0), block: s.blockSize, page: s.pageSize, blobs: blobs}
		}
	}

	// putFiles has client g put files first+g, first+g+2, ...; it
	// returns the per-op latencies and each client's elapsed time.
	putFiles := func(first, n int, timed bool) (lat []float64, elapsed [clients]time.Duration) {
		var perClient [clients][]float64
		parallel(clients, func(g int) {
			start := time.Now()
			for f := first + g; f < first+n; f += clients {
				data := pat.file(g, f)
				a := time.Now()
				err := cl[g].put(filePath(f), data)
				b := time.Now()
				if err != nil {
					ops.fail("tcp-files: put %s: %v", filePath(f), err)
					continue
				}
				ops.ok()
				if timed {
					perClient[g] = append(perClient[g], ms(b.Sub(a)))
					cfg.rec.add(st.layer(), "put", a, b, int64(len(data)))
				}
			}
			elapsed[g] = time.Since(start)
		})
		return flatten(perClient), elapsed
	}

	putFiles(0, s.preload, false)
	out.setup = time.Since(t0)
	runtime.GC()

	// Write phase. The forced flush is inside the window: the default
	// asynchronous flusher runs throughout, and what it has not yet
	// persisted is drained here so no log write bleeds into the reads.
	m0 := cfg.memBefore()
	t1 := time.Now()
	lat, elapsed := putFiles(s.preload, s.writes, true)
	for _, p := range dep.ProviderList() {
		a := time.Now()
		if err := p.FlushNow(); err != nil {
			ops.fail("tcp-files: flush provider %d: %v", p.Node(), err)
		}
		cfg.rec.add("store", "flush_now", a, time.Now(), 0)
	}
	out.writeWall, out.writeLat = time.Since(t1), lat
	out.writeBytes = int64(s.writes) * s.fileSize
	out.sides(elapsed)
	cfg.memAfter(&out.mem, m0, out.writeBytes)
	out.storeBytes = dirBytes(dir)
	out.userBytes = int64(s.preload+s.writes) * s.fileSize
	runtime.GC()

	// Read phase: all files in seeded order, each client reading the
	// files the other wrote.
	total := s.preload + s.writes
	order := newRNG(cfg.seed, 7).perm(total)
	hits0, misses0, evictions0 := cacheCounters(dep)
	var perClient [clients][]float64
	m0 = cfg.memBefore()
	t2 := time.Now()
	parallel(clients, func(g int) {
		start := time.Now()
		for i, f := range order {
			if f%clients == g {
				continue
			}
			a := time.Now()
			got, err := cl[g].get(filePath(f))
			if err != nil {
				ops.fail("tcp-files: get %s: %v", filePath(f), err)
				continue
			}
			cfg.corrupt(i+1, got)
			okay := bytes.Equal(got, pat.file(g, f))
			b := time.Now()
			if !okay {
				ops.fail("tcp-files: %s: content differs from what was written", filePath(f))
				continue
			}
			ops.ok()
			perClient[g] = append(perClient[g], ms(b.Sub(a)))
			cfg.rec.add(st.layer(), "get", a, b, int64(len(got)))
		}
		elapsed[g] = time.Since(start)
	})
	out.readWall, out.readLat = time.Since(t2), flatten(perClient)
	out.readBytes = int64(total) * s.fileSize
	out.sides(elapsed)
	cfg.memAfter(&out.mem, m0, out.readBytes)
	hits, misses, evictions := cacheCounters(dep)
	out.hits, out.misses, out.evictions = hits-hits0, misses-misses0, evictions-evictions0
	out.wall = out.writeWall + out.readWall
	return out, nil
}

func runTCPFiles(cfg *config, r *result) error {
	s := cfg.sizes.tcp
	pat := newTCPPatterns(cfg.seed, s)
	var ops opCounter
	err := runRounds(cfg, r, s.footprint(), s.rounds, func() (roundStats, error) {
		st, err := tcpFilesRound(cfg, s, stairRPC, pat, &ops)
		return st.roundStats, err
	})
	ops.into(r)
	return err
}
