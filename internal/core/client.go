// client.go implements the BlobSeer client library: the write protocol
// (ticket -> page placement -> page scatter -> metadata publish ->
// version publish), the versioned read protocol (tree walk -> parallel
// page gather), and the page-location primitive BSFS exposes to the
// MapReduce scheduler. The public face of all of it is the blob handle
// (blob.go): Client opens handles, handles perform operations, options
// (options.go) select the variant, and an op-scoped cluster.Ctx can
// cancel any of it mid-flight.

package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/cluster"
	"repro/internal/dht"
	"repro/internal/stripecache"
)

// ErrSynthetic is returned when a caller asks for real bytes from a
// range containing synthetic (size-only) pages.
var ErrSynthetic = errors.New("core: range contains synthetic pages; read with the Synthetic option")

// ErrAllReplicasDown is returned when every provider holding a copy of
// a page is unreachable: the data exists but no live replica can serve
// it. The placement loop restores the replication factor before this
// happens.
var ErrAllReplicasDown = errors.New("core: all replicas down")

// ErrCanceled re-exports the typed cancellation error operations
// surface when their cluster.Ctx is canceled or its deadline expires.
// Match with errors.Is.
var ErrCanceled = cluster.ErrCanceled

// Client issues BlobSeer operations from one cluster node. Per-blob
// operations run through *Blob handles (OpenBlob / CreateBlob); the
// Client itself carries only the cross-blob surface. A Client is safe
// for concurrent use by multiple goroutines (or simulated processes):
// mu guards only the page-size cache — a write's borrows arrive with
// its ticket, so the client holds no write history — the metadata
// cache locks itself, and the scatter/gather fan-outs join all
// in-flight provider operations before returning.
type Client struct {
	d    *Deployment
	node cluster.NodeID
	meta *cachedMeta

	mu        sync.Mutex
	pageSizes map[BlobID]int64
}

// cachedMeta caches metadata tree nodes client-side with LRU
// eviction, sharded across lock stripes (internal/stripecache) so
// concurrent readers and writers on different keys never serialize on
// one mutex. Tree nodes are immutable once written (a version's tree
// is never modified), so the cache needs no invalidation — the
// original BlobSeer client caches metadata the same way. The one
// exception is the placement loop: the Rebalancer rewrites leaves it
// re-replicates or migrates, writing through its own cache. Another
// client's stale leaf still names the old holders; after a migration
// drops their copies, a read through that leaf fails with
// ErrAllReplicasDown.
type cachedMeta struct {
	cl    *dht.Client
	cache *stripecache.Cache
}

func newCachedMeta(cl *dht.Client, shards, capacity int) *cachedMeta {
	return &cachedMeta{cl: cl, cache: stripecache.New(shards, capacity)}
}

// getNode implements the tree walk's nodeGetter fast path: a cache hit
// by byte-rendered key, with no key string or result map materialized.
func (c *cachedMeta) getNode(key []byte) ([]byte, bool) {
	return c.cache.GetBytes(key)
}

// BatchGet serves hits locally and fetches only the misses.
func (c *cachedMeta) BatchGet(keys []string) (map[string][]byte, error) {
	out := make(map[string][]byte, len(keys))
	var missing []string
	for _, k := range keys {
		if v, ok := c.cache.Get(k); ok {
			out[k] = v
		} else {
			missing = append(missing, k)
		}
	}
	if len(missing) > 0 {
		got, err := c.cl.BatchGet(missing)
		if err != nil {
			return nil, err
		}
		for k, v := range got {
			out[k] = v
			c.cache.Put(k, v)
		}
	}
	return out, nil
}

// batchPut writes through to the DHT and populates the cache.
func (c *cachedMeta) batchPut(kvs map[string][]byte) error {
	if err := c.cl.BatchPut(kvs); err != nil {
		return err
	}
	for k, v := range kvs {
		c.cache.Put(k, v)
	}
	return nil
}

// vm resolves the version-manager shard owning a blob. The shard index
// is encoded in the blob id (id mod shard count), so routing is local
// arithmetic — the client never pays a lookup round trip.
func (c *Client) vm(blob BlobID) *VersionManager { return c.d.VM.Shard(blob) }

// CreateBlob registers a new blob with the given page size (0 uses the
// deployment default) and returns its handle.
func (c *Client) CreateBlob(pageSize int64) (*Blob, error) {
	if pageSize <= 0 {
		pageSize = c.d.Opts.PageSize
	}
	id, err := c.d.VM.createBlob(c.node, pageSize)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.pageSizes[id] = pageSize
	c.mu.Unlock()
	return &Blob{c: c, id: id, pageSize: pageSize}, nil
}

// OpenBlob returns a handle to an existing blob. The first open of a
// blob fetches its page size from the owning version-manager shard,
// later opens and operations serve it from the client cache.
func (c *Client) OpenBlob(id BlobID) (*Blob, error) {
	ps, err := c.pageSize(id)
	if err != nil {
		return nil, err
	}
	return &Blob{c: c, id: id, pageSize: ps}, nil
}

// pageSize returns a blob's page size, cached after the first lookup.
func (c *Client) pageSize(blob BlobID) (int64, error) {
	c.mu.Lock()
	ps, ok := c.pageSizes[blob]
	c.mu.Unlock()
	if ok {
		return ps, nil
	}
	ps, err := c.vm(blob).pageSize(c.node, blob)
	if err != nil {
		return 0, err
	}
	c.mu.Lock()
	c.pageSizes[blob] = ps
	c.mu.Unlock()
	return ps, nil
}

// AppendBlock is one block of a write: real bytes, or a synthetic
// length when Data is nil.
type AppendBlock struct {
	Data []byte
	Size int64 // synthetic byte count; ignored when Data is non-nil
}

func (b AppendBlock) length() int64 {
	if b.Data != nil {
		return int64(len(b.Data))
	}
	return b.Size
}

// writeBlocks is the write protocol, run once per call for any number
// of blocks: ticket, page assembly, placement, scatter, metadata,
// publish. The blocks land back-to-back as consecutive versions
// starting at off (negative: at the blob's end, resolved by the
// ticket), so a single write is a batch of one and a batch amortizes
// the version-manager round trips: one RequestTickets call assigns
// every version (contiguously — no other writer interleaves), the pages
// of all blocks scatter in one fan-out, the metadata trees go out in
// one DHT batch, and one PublishBatch call publishes them under one
// manager lock hold. It returns the published versions in block order
// and the offset the first block landed at.
//
// One failure rule: once the tickets are assigned, any failure — an
// error in any step, or a cancellation of s.ctx — resolves every
// member with one AbortBatch, so a leaked pending ticket never wedges
// the publication frontier (and thus every later writer). The call
// returns an error iff at least one version did not publish; the
// members that did (publication may beat a cancel) are a contiguous
// prefix and are returned alongside it.
//
// A positioned call (off >= 0) carries one block: only the last
// version's uncovered tail is merged.
func (c *Client) writeBlocks(s opSettings, blob BlobID, ps, off int64, blocks []AppendBlock) ([]Version, int64, error) {
	if len(blocks) == 0 {
		return nil, 0, nil
	}
	synthetic := blocks[0].Data == nil
	var payload int64
	for _, b := range blocks {
		if b.length() <= 0 {
			return nil, 0, fmt.Errorf("%w: length %d", ErrBadWrite, b.length())
		}
		if (b.Data == nil) != synthetic {
			return nil, 0, fmt.Errorf("%w: mixed real and synthetic blocks", ErrBadWrite)
		}
		payload += b.length()
	}
	if err := s.ctx.Err(); err != nil {
		return nil, 0, canceled("write", err) // before the ticket: nothing to release
	}
	vm := c.vm(blob)

	// 1. One ticket round trip for every version (appends resolve their
	// offset here); each ticket carries its tree's borrows.
	intents := make([]WriteIntent, len(blocks))
	for i, b := range blocks {
		intents[i] = WriteIntent{Off: off, Length: b.length()}
	}
	tickets, err := vm.RequestTickets(c.node, blob, intents, 0)
	if err != nil {
		return nil, 0, err
	}
	versions := make([]Version, len(tickets))
	for i, t := range tickets {
		versions[i] = t.Record.Version
	}
	first, last := tickets[0].Record, tickets[len(tickets)-1].Record
	base := first.Offset

	// fail is the one failure rule. AbortBatch resolves every member
	// under a single version-manager lock acquisition: whatever has not
	// published is tombstoned, so the members still published afterwards
	// are a contiguous prefix, found by probing in order. That prefix is
	// exact (nothing published lies past it) and backs the caller's FIFO
	// byte accounting.
	fail := func(cause error) ([]Version, int64, error) {
		if abortErr := vm.abortBatch(c.node, blob, versions); abortErr != nil {
			cause = fmt.Errorf("%w (abort also failed: %v)", cause, abortErr)
		}
		n := 0
		for n < len(versions) {
			if _, err := vm.GetVersion(c.node, blob, versions[n]); err != nil {
				break
			}
			n++
		}
		if n == len(versions) {
			return versions, base, nil // publication beat the failure
		}
		return versions[:n], base, cause
	}
	if err := s.ctx.Err(); err != nil {
		return fail(canceled("write", err))
	}

	// 2. Page contents. The call spans one contiguous byte range, so a
	// single extended buffer over [page-aligned start, end of the last
	// page's extent) covers every page of every version, and in-batch
	// boundary pages never read each other through the store (which
	// would deadlock on unpublished predecessors). Only its two ends can
	// hold bytes the payload does not cover; they merge with their true
	// predecessor version (page-level read-modify-write), which for
	// concurrent writers waits for the predecessor's publication, so
	// interleaved sub-page appends never lose bytes.
	//
	// A write with no fragment to merge, whose blocks each start on a
	// page boundary, takes no buffer at all: each page is a slice of the
	// caller's block (ext stays nil). That is every page-aligned append
	// and every whole-page WriteAt. The store copies on ingest, so the
	// caller may reuse its blocks once this returns.
	alignedStart := base - base%ps
	var ext []byte
	if !synthetic {
		_, hi := pageSpan(last.Offset, last.Length, ps)
		extEnd := (hi-1)*ps + pageExtent(hi-1, ps, last.SizeAfter)
		head, tail := base-alignedStart, base+payload-alignedStart
		direct := head == 0 && tail == extEnd-alignedStart
		for _, b := range blocks[:len(blocks)-1] {
			direct = direct && int64(len(b.Data))%ps == 0
		}
		if !direct {
			// Pooled; the scatter joins every in-flight put before this
			// function returns, so the deferred recycle is safe on every
			// path. Only the fragments are cleared: where no version wrote,
			// they must read as zeros.
			extBuf := getBuf(extEnd - alignedStart)
			defer putBuf(extBuf)
			ext = extBuf.b
			clear(ext[:head])
			clear(ext[tail:])
			if head > 0 {
				if err := c.mergeFragment(s.ctx, blob, first.Version, ps, alignedStart, ext[:head]); err != nil {
					return fail(err)
				}
			}
			if tail < int64(len(ext)) { // a write inside the blob; appends end at SizeAfter
				if err := c.mergeFragment(s.ctx, blob, first.Version, ps, base+payload, ext[tail:]); err != nil {
					return fail(err)
				}
			}
			at := head
			for _, b := range blocks {
				at += int64(copy(ext[at:], b.Data))
			}
		}
	}

	// 3. Placement for every page of every version, keyed in slot order:
	// each page key hashes to its preferred owners under the current
	// membership epoch (or to the ablation strategy's pick).
	keys := make([]string, 0, payload/ps+int64(2*len(tickets)))
	for _, t := range tickets {
		lo, hi := pageSpan(t.Record.Offset, t.Record.Length, ps)
		for p := lo; p < hi; p++ {
			keys = append(keys, pageKey(t.Record.blob, t.Record.Version, p))
		}
	}
	sets, err := c.d.Placement.Place(c.node, keys, c.d.Opts.Replication)
	if err != nil {
		return fail(err)
	}

	// 4. One scatter fan-out (one logical transfer; the store operations
	// carry the real or synthetic contents).
	perProv := make(map[cluster.NodeID][]pagePut)
	var total int64
	slot := 0
	for i, t := range tickets {
		lo, hi := pageSpan(t.Record.Offset, t.Record.Length, ps)
		for p := lo; p < hi; p++ {
			size := pageExtent(p, ps, t.Record.SizeAfter)
			var content []byte
			switch {
			case ext != nil:
				from := p*ps - alignedStart
				content = ext[from : from+size]
			case !synthetic:
				from := p*ps - t.Record.Offset
				content = blocks[i].Data[from : from+size]
			}
			total += size * int64(len(sets[slot]))
			for _, prov := range sets[slot] {
				perProv[prov] = append(perProv[prov], pagePut{key: keys[slot], data: content, size: size})
			}
			slot++
		}
	}
	if err := c.scatterPuts(s.ctx, perProv, total); err != nil {
		return fail(err)
	}

	// 5. Every version's metadata tree in one DHT batch.
	if err := s.ctx.Err(); err != nil {
		return fail(canceled("write", err))
	}
	// A span of n pages creates about 2n nodes (leaves plus intersecting
	// inners) and up to a log-factor spine; presize so hot appends never
	// regrow the map.
	tb := treeBuild{out: make(map[string][]byte, 2*len(keys)+8*len(tickets))}
	slot = 0
	for _, t := range tickets {
		lo, hi := pageSpan(t.Record.Offset, t.Record.Length, ps)
		tb.buildNodes(t, ps, pagePlacement{lo: lo, sets: sets[slot : slot+int(hi-lo)]})
		slot += int(hi - lo)
	}
	if err := c.meta.batchPut(tb.out); err != nil {
		return fail(err)
	}

	// 6. One publish round trip; the manager marks every version ready
	// and advances the frontier under one lock hold, and the write
	// blocks until every version is globally visible. A cancellation
	// while awaiting visibility leaves the members ready-but-unconfirmed,
	// which fail resolves like any other failure.
	if err := vm.PublishBatch(s.ctx, c.node, blob, versions); err != nil {
		return fail(err)
	}
	return versions, base, nil
}

// pagePut is one page store operation of a write scatter.
type pagePut struct {
	key  string
	data []byte
	size int64
}

// scatterPuts pushes per-provider page batches concurrently as one
// logical transfer (one RTT charge, one Scatter charge). fanOut joins
// every worker before returning, so a failed scatter never races an
// in-flight put; workers stop issuing new puts as soon as any provider
// fails or ctx is canceled, and the first error is returned for the
// caller to abort on.
func (c *Client) scatterPuts(ctx *cluster.Ctx, perProv map[cluster.NodeID][]pagePut, total int64) error {
	dests := sortedNodes(perProv)
	c.d.Env.RTT(c.node, cluster.Farthest(c.d.Env, c.node, dests))
	c.d.Env.Scatter(c.node, dests, total)
	var scMu sync.Mutex
	var scErr error
	failed := func() bool {
		if ctx.Done() {
			return true
		}
		scMu.Lock()
		defer scMu.Unlock()
		return scErr != nil
	}
	c.fanOut(dests, func(prov cluster.NodeID) {
		pr := c.d.Provider(prov)
		var err error
		if pr == nil {
			err = fmt.Errorf("core: no provider on node %d", prov)
		} else {
			for _, pt := range perProv[prov] {
				if failed() {
					return
				}
				if err = pr.putPage(pt.key, pt.data, pt.size); err != nil {
					break
				}
			}
		}
		if err != nil {
			scMu.Lock()
			if scErr == nil {
				scErr = err
			}
			scMu.Unlock()
		}
	})
	if scErr == nil {
		if err := ctx.Err(); err != nil {
			return canceled("scatter", err)
		}
	}
	return scErr
}

// pageExtent returns how many bytes of page p exist in a blob of the
// given size.
func pageExtent(p, ps, size int64) int64 {
	start := p * ps
	if size <= start {
		return 0
	}
	if size >= start+ps {
		return ps
	}
	return size - start
}

// mergeFragment fills dst with the blob's bytes starting at offset
// from — a fragment lying within one page — as of the version before v:
// the version manager names the page's owner once it is published
// (concurrent-append safety; the wait is cancellable through ctx). If no
// version ever wrote the page the fragment stays zero.
func (c *Client) mergeFragment(ctx *cluster.Ctx, blob BlobID, v Version, ps, from int64, dst []byte) error {
	w, err := c.vm(blob).pageOwner(ctx, c.node, blob, v, from/ps)
	if err != nil || w == 0 {
		return err
	}
	s := defaultSettings()
	s.ctx = ctx
	s.version = w
	if _, err := c.readCommon(s, blob, ps, from, int64(len(dst)), dst); err != nil {
		return fmt.Errorf("core: read-modify-write of bytes [%d,%d) @v%d: %w", from, from+int64(len(dst)), w, err)
	}
	return nil
}

// readCommon implements the read protocol for the snapshot addressed
// by s.version. If dst is non-nil the bytes are materialized into it
// (error if the range holds synthetic pages); a nil dst traverses the
// path for length bytes without materializing. Cancellation of s.ctx
// is honored between protocol steps and between gather rounds.
func (c *Client) readCommon(s opSettings, blob BlobID, ps, off, length int64, dst []byte) (int64, error) {
	if length <= 0 || off < 0 {
		return 0, nil
	}
	if err := s.ctx.Err(); err != nil {
		return 0, canceled("read", err)
	}
	rec, ok, err := c.resolveVersion(blob, s.version)
	if err != nil {
		return 0, err
	}
	if !ok || off >= rec.SizeAfter {
		return 0, nil
	}
	v := rec.Version
	size := rec.SizeAfter
	if off+length > size {
		length = size - off
	}
	capPages := capacityPages(size, ps)

	// Tree walk: one batched DHT get per level. The root node lives in
	// the key space of the version's owning blob (differs after
	// Snapshot branching).
	lo, hi := pageSpan(off, length, ps)
	leaves, err := walkTree(rec.blob, v, capPages, lo, hi, c.meta, c.abortedProbe)
	if err != nil {
		return 0, err
	}

	// Gather staging lives in pooled buffers; they recycle after the
	// copy-out below (nothing retains the staged bytes past this call).
	var arena bufArena
	defer arena.release()
	fetched, err := c.gatherPages(s.ctx, leaves, lo, hi, &arena)
	if err != nil {
		return 0, err
	}

	// Materialize.
	if dst != nil {
		for _, leaf := range leaves {
			pStart := leaf.Page * ps
			// Destination window of this page.
			from, to := pStart, pStart+ps
			if from < off {
				from = off
			}
			if to > off+length {
				to = off + length
			}
			if from >= to {
				continue
			}
			window := dst[from-off : to-off]
			if len(leaf.Providers) == 0 {
				for i := range window {
					window[i] = 0
				}
				continue
			}
			it := fetched[leaf.Page-lo]
			if it.data == nil {
				return 0, fmt.Errorf("%w: page %d", ErrSynthetic, leaf.Page)
			}
			pageOff := from - pStart
			if pageOff < int64(len(it.data)) {
				copy(window, it.data[pageOff:])
			}
		}
	}
	return length, nil
}

// fanOut runs fn once per node, concurrently through the environment's
// WaitGroup so the same code overlaps provider I/O in both the Sim and
// Local envs. It returns only after every invocation has finished: no
// in-flight work leaks past it. A single node is visited inline: there
// is nothing to overlap.
func (c *Client) fanOut(nodes []cluster.NodeID, fn func(cluster.NodeID)) {
	if len(nodes) <= 1 {
		for _, n := range nodes {
			fn(n)
		}
		return
	}
	wg := c.d.Env.NewWaitGroup()
	for _, n := range nodes {
		wg.Go(func() { fn(n) })
	}
	wg.Wait()
}

// gatherPages fetches every non-hole leaf's page in rounds of
// per-provider batches — pages resident in provider RAM copied inline,
// the rest fetched concurrently — with per-page replica failover: a
// provider that fails mid-fetch only requeues its own pages onto their
// surviving replicas instead of aborting the whole read. A page none of
// whose replicas can serve fails with ErrAllReplicasDown. Cancellation
// is honored between rounds and before each concurrent batch: a canceled
// gather stops issuing fetches, joins its in-flight workers, and
// returns an error matching ErrCanceled.
//
// Leaves cover the page span [lo, hi); the result is indexed by
// page-lo (holes stay zero entries). Real page bytes are staged in
// arena's pooled buffers — the caller releases the arena once done
// with the fetched data.
func (c *Client) gatherPages(ctx *cluster.Ctx, leaves []PageLoc, lo, hi int64, arena *bufArena) ([]pageFetch, error) {
	type pendingPage struct {
		loc     PageLoc
		tried   map[cluster.NodeID]bool // replicas that already failed
		lastErr error                   // most recent fetch failure
	}
	// Pages are tracked by value and rounds pass index slices around, so
	// the per-page bookkeeping of a clean single-round gather (the hot
	// path) is three slice allocations, not one per page.
	pending := make([]pendingPage, 0, len(leaves))
	for _, leaf := range leaves {
		if len(leaf.Providers) == 0 {
			continue // hole: zeros
		}
		pending = append(pending, pendingPage{loc: leaf})
	}
	active := make([]int, 0, len(pending)) // indices into pending this round
	for i := range pending {
		active = append(active, i)
	}
	next := make([]int, 0, len(active))
	fetched := make([]pageFetch, hi-lo) // index: page - lo
	for len(active) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, canceled("gather", err)
		}
		perProv := make(map[cluster.NodeID][]int)
		for _, idx := range active {
			pp := &pending[idx]
			prov, err := c.pickReplica(pp.loc.Providers, pp.tried)
			if err != nil {
				// Keep the underlying fetch error: "all replicas down"
				// with every provider up means the store itself failed,
				// and that cause must not be lost.
				if pp.lastErr != nil {
					return nil, fmt.Errorf("%w: page %d of blob %d@%d (last replica error: %v)", err, pp.loc.Page, pp.loc.blob, pp.loc.Version, pp.lastErr)
				}
				return nil, fmt.Errorf("%w: page %d of blob %d@%d", err, pp.loc.Page, pp.loc.blob, pp.loc.Version)
			}
			perProv[prov] = append(perProv[prov], idx)
		}
		srcs := sortedNodes(perProv)

		// Stage one, on the calling goroutine: pages resident in provider
		// RAM are copied right here — waking an idle core costs more than
		// the memcpys it would take over. The rest wait for a backend
		// read (or a provider to fail them) in stage two's fan-out.
		next = next[:0]
		var total, fromDisk int64
		var waiting []cluster.NodeID
		var kb [48]byte
		for _, prov := range srcs {
			pr, batch := c.d.Provider(prov), perProv[prov]
			rest := batch[:0]
			for _, idx := range batch {
				loc := pending[idx].loc
				if it, ok := pr.residentPageInto(appendPageKey(kb[:0], loc.blob, loc.Version, loc.Page), arena.alloc); ok {
					fetched[loc.Page-lo] = it
					total += it.size
					continue
				}
				rest = append(rest, idx)
			}
			if perProv[prov] = rest; len(rest) > 0 {
				waiting = append(waiting, prov)
			}
		}
		var gmu sync.Mutex // guards next, total, fromDisk, pending[i].tried/lastErr
		c.fanOut(waiting, func(prov cluster.NodeID) {
			if ctx.Done() {
				return // canceled: the round check below surfaces it
			}
			batch := perProv[prov]
			pr := c.d.Provider(prov)
			var err error
			var localTotal, localFromDisk int64
			if pr == nil {
				err = fmt.Errorf("core: no provider on node %d", prov)
			} else {
				// Keys render into a stack buffer per page; each page
				// belongs to exactly one provider batch per round, so
				// writing its fetched slot needs no lock.
				var kb [48]byte
				for _, idx := range batch {
					loc := pending[idx].loc
					it, gerr := pr.getPageInto(appendPageKey(kb[:0], loc.blob, loc.Version, loc.Page), arena.alloc)
					if gerr != nil {
						err = gerr
						break
					}
					fetched[loc.Page-lo] = it
					localTotal += it.size
					if it.fromDisk {
						localFromDisk += it.size
					}
				}
			}
			gmu.Lock()
			defer gmu.Unlock()
			if err != nil {
				// Provider failed mid-read: requeue its whole waiting batch
				// onto the pages' remaining replicas (pages this stage fetched
				// before the failure are refetched, their bytes not charged).
				for _, idx := range batch {
					pp := &pending[idx]
					if pp.tried == nil {
						pp.tried = make(map[cluster.NodeID]bool)
					}
					pp.tried[prov] = true
					pp.lastErr = err
					next = append(next, idx)
				}
				return
			}
			total += localTotal
			fromDisk += localFromDisk
		})
		// One round-trip charge per round over every provider it touched,
		// in either stage; contacting a dead provider still costs its RTT.
		diskFrac := 0.0
		if total > 0 {
			diskFrac = float64(fromDisk) / float64(total)
		}
		c.d.Env.RTT(c.node, cluster.Farthest(c.d.Env, c.node, srcs))
		c.d.Env.Gather(c.node, srcs, total, diskFrac)
		if err := ctx.Err(); err != nil {
			return nil, canceled("gather", err)
		}
		active, next = next, active
	}
	return fetched, nil
}

// pickReplica chooses the replica to read a page from: the local node
// if it holds a live copy, otherwise the first live replica not yet
// tried. With every replica down (or already failed) it returns
// ErrAllReplicasDown at selection time instead of handing back a dead
// node whose fetch would fail with a misleading generic error.
func (c *Client) pickReplica(replicas []cluster.NodeID, tried map[cluster.NodeID]bool) (cluster.NodeID, error) {
	live := func(r cluster.NodeID) bool {
		if tried[r] {
			return false
		}
		pr := c.d.Provider(r)
		return pr != nil && !pr.isDown()
	}
	for _, r := range replicas {
		if r == c.node && live(r) {
			return r, nil
		}
	}
	for _, r := range replicas {
		if live(r) {
			return r, nil
		}
	}
	return 0, ErrAllReplicasDown
}

// locations implements Blob.Locations.
func (c *Client) locations(s opSettings, blob BlobID, off, length int64) ([]PageLoc, error) {
	if err := s.ctx.Err(); err != nil {
		return nil, canceled("locations", err)
	}
	ps, err := c.pageSize(blob)
	if err != nil {
		return nil, err
	}
	rec, ok, err := c.resolveVersion(blob, s.version)
	if err != nil {
		return nil, err
	}
	if !ok || off >= rec.SizeAfter || length <= 0 {
		return nil, nil
	}
	size := rec.SizeAfter
	if off+length > size {
		length = size - off
	}
	lo, hi := pageSpan(off, length, ps)
	return walkTree(rec.blob, rec.Version, capacityPages(size, ps), lo, hi, c.meta, c.abortedProbe)
}

// abortedProbe is walkTree's tombstone oracle: it asks the owning
// version-manager shard whether a version whose metadata node is
// missing was aborted (in which case the subtree is a hole, not
// corruption). Errors report false — the walk then fails with the
// honest missing-node error.
func (c *Client) abortedProbe(blob BlobID, v Version) bool {
	ab, err := c.vm(blob).isAborted(c.node, blob, v)
	return err == nil && ab
}

// resolveVersion fetches the record of v (or of the latest published
// version); ok is false when the blob is empty.
func (c *Client) resolveVersion(blob BlobID, v Version) (WriteRecord, bool, error) {
	if v == LatestVersion {
		return c.vm(blob).latestRecord(c.node, blob)
	}
	rec, err := c.vm(blob).GetVersion(c.node, blob, v)
	if err != nil {
		return WriteRecord{}, false, err
	}
	return rec, true, nil
}

func sortedNodes[V any](m map[cluster.NodeID]V) []cluster.NodeID {
	out := make([]cluster.NodeID, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	slices.Sort(out)
	return out
}
