// version.go implements one shard of BlobSeer's version-manager tier:
// the entity that assigns version numbers to writes (tickets), resolves
// each ticket's borrowed tree children from the blob's one creator index
// (meta.go), and publishes versions in ticket order so readers always
// see a consistent, totally ordered sequence of snapshots.
//
// The paper's version manager is a single node. This repository shards
// it (see shard.go): each VersionManager owns the blobs whose ids are
// congruent to its shard index modulo the shard count, allocating ids
// with a per-shard stride so ownership is decidable from the id alone.
// A one-shard manager allocates the dense sequence 1, 2, 3, ... and
// behaves exactly like the paper's centralized one.
//
// The write-side RPCs are batched — RequestTickets, PublishBatch,
// AbortBatch — and a single write is a batch of one:
// there is no per-version variant. A publish or abort call resolves all
// its members under one hold of vm.mu and advances the blob's published
// frontier once, waking publishers and awaitPublished waiters in one
// sweep, so clients amortize the manager round trip across many
// in-flight writes. The frontier moves only under vm.mu: that is the
// one step the manager serializes.

package core

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
)

// Errors returned by the version manager.
var (
	ErrNoSuchBlob    = errors.New("core: no such blob")
	ErrNoSuchVersion = errors.New("core: no such version")
	ErrAborted       = errors.New("core: version aborted")
	ErrBadWrite      = errors.New("core: invalid write request")
)

// Ticket is the version manager's reply to a write intent: the assigned
// version, the resolved offset (for appends) and the blob geometry
// after the write, plus what the writer's metadata tree needs from the
// versions before it — the borrowed children, resolved against the
// manager's own records, and the tree capacity before the write.
type Ticket struct {
	// Record is the writer's own pending WriteRecord: the assigned
	// version, resolved offset and post-write geometry.
	Record    WriteRecord
	borrows   []nodeRef // children Record does not create, in buildNodes' visit order
	capBefore int64
}

// WriteIntent describes one write of a batched ticket request: a byte
// span at Off (negative requests an append at the current end).
type WriteIntent struct {
	Off    int64
	Length int64
}

// VersionManager runs on one node and serializes version assignment
// for the blobs of its shard (all blobs, in a single-shard tier).
type VersionManager struct {
	env  cluster.Env
	node cluster.NodeID

	// shard/stride define this manager's slice of the blob-id space:
	// it owns every id congruent to shard modulo stride. A standalone
	// manager is shard 0 of stride 1 and owns everything.
	shard  int
	stride BlobID

	// svcTime > 0 models the manager's per-RPC processing occupancy:
	// each incoming call holds the shard's (single-threaded) processor
	// for svcTime of virtual time, so concurrent callers queue. This is
	// what makes a centralized manager a measurable bottleneck in the
	// simulation — and the sharded tier's aggregate throughput win
	// measurable (experiment X5). 0 disables the model entirely.
	svcMu   sync.Mutex
	svcTime time.Duration
	svcBusy time.Duration // virtual time the processor is busy until

	mu     sync.Mutex
	nextID BlobID
	blobs  map[BlobID]*blobState
}

type blobState struct {
	pageSize  int64
	records   []WriteRecord // index i = version i+1; includes pending
	index     creatorIndex  // over records, extended by push
	published Version       // latest published version
	pending   map[Version]*pendingWrite
	// pubWaiters are awaitPublished and pageOwner callers parked until
	// the publication frontier reaches their version.
	pubWaiters []pubWaiter
}

func newBlobState(pageSize int64) *blobState {
	ix := creatorIndex{exact: make(map[pageRange]int), full: make(map[pageRange]int)}
	return &blobState{pageSize: pageSize, pending: make(map[Version]*pendingWrite), index: ix}
}

type pubWaiter struct {
	v   Version
	sig cluster.Signal
}

type pendingWrite struct {
	ready   bool // publish received, waiting for predecessors
	aborted bool
	done    cluster.Signal // fired when published or aborted
}

// newVersionManagerShard creates shard `shard` of a `stride`-shard
// version-manager tier, hosted on node. The shard allocates blob ids
// congruent to shard modulo stride (starting at the smallest such id
// >= 1), so the owning shard of any blob is the pure function
// id mod stride — no lookup table, no routing RPC. serviceTime is the
// sim occupancy model (Options.VMServiceTime), fixed for the manager's
// lifetime.
func newVersionManagerShard(env cluster.Env, node cluster.NodeID, shard, stride int, serviceTime time.Duration) *VersionManager {
	if stride < 1 || shard < 0 || shard >= stride {
		panic(fmt.Sprintf("core: invalid version-manager shard %d of %d", shard, stride))
	}
	first := BlobID(shard)
	if first == 0 {
		first = BlobID(stride) // ids start at 1; shard 0's first id is the stride itself
	}
	return &VersionManager{
		env:     env,
		node:    node,
		shard:   shard,
		stride:  BlobID(stride),
		svcTime: serviceTime,
		nextID:  first,
		blobs:   make(map[BlobID]*blobState),
	}
}

// serve charges the modeled request-processing occupancy: the caller
// queues behind every earlier request's slot and holds the processor
// for svcTime. Implemented as a busy-horizon so no blocking primitive
// is needed — each request extends the horizon and sleeps (in virtual
// time) until its own slot has passed.
func (vm *VersionManager) serve() {
	if vm.svcTime <= 0 {
		return
	}
	now := vm.env.Now()
	vm.svcMu.Lock()
	start := vm.svcBusy
	if start < now {
		start = now
	}
	end := start + vm.svcTime
	vm.svcBusy = end
	vm.svcMu.Unlock()
	vm.env.Sleep(end - now)
}

// createBlob registers a new blob with the given page size and returns
// its id — the next id of this shard's stride sequence, so the id
// itself encodes the owning shard. Version 0 (empty) is immediately
// readable.
func (vm *VersionManager) createBlob(from cluster.NodeID, pageSize int64) (BlobID, error) {
	if pageSize <= 0 {
		return 0, fmt.Errorf("%w: page size %d", ErrBadWrite, pageSize)
	}
	vm.env.RTT(from, vm.node)
	vm.serve()
	vm.mu.Lock()
	defer vm.mu.Unlock()
	id := vm.nextID
	vm.nextID += vm.stride
	vm.blobs[id] = newBlobState(pageSize)
	return id, nil
}

// pageSize returns the blob's page size.
func (vm *VersionManager) pageSize(from cluster.NodeID, blob BlobID) (int64, error) {
	vm.env.RTT(from, vm.node)
	vm.serve()
	vm.mu.Lock()
	defer vm.mu.Unlock()
	b, ok := vm.blobs[blob]
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrNoSuchBlob, blob)
	}
	return b.pageSize, nil
}

// RequestTickets assigns consecutive versions to a batch of writes in
// one round trip (an intent with Off < 0 requests an append at the
// current end). The versions are guaranteed contiguous — no other
// writer's ticket interleaves — so batched appends land back-to-back.
// Each ticket carries its tree's borrowed children, resolved against the
// manager's own records (ticket i may borrow from tickets 0..i-1), so
// the writer needs no history. A bad intent fails the whole batch
// before any version is assigned. since is ignored: it stays in the
// signature for existing callers, and callers pass 0.
func (vm *VersionManager) RequestTickets(from cluster.NodeID, blob BlobID, intents []WriteIntent, since Version) ([]Ticket, error) {
	if len(intents) == 0 {
		return nil, nil
	}
	vm.env.RTT(from, vm.node)
	vm.serve()
	vm.mu.Lock()
	defer vm.mu.Unlock()
	b, ok := vm.blobs[blob]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNoSuchBlob, blob)
	}
	for _, in := range intents {
		if in.Length <= 0 {
			return nil, fmt.Errorf("%w: length %d", ErrBadWrite, in.Length)
		}
	}
	out := make([]Ticket, len(intents))
	for i, in := range intents {
		out[i] = vm.assignLocked(b, blob, in)
	}
	return out, nil
}

// assignLocked appends and indexes the next version's record, adds its
// pending entry and returns its ticket.
func (vm *VersionManager) assignLocked(b *blobState, blob BlobID, in WriteIntent) Ticket {
	prevSize := int64(0)
	if n := len(b.records); n > 0 {
		prevSize = b.records[n-1].SizeAfter
	}
	off := in.Off
	if off < 0 {
		off = prevSize // append
	}
	size := max(prevSize, off+in.Length)
	rec := WriteRecord{
		blob:      blob,
		Version:   Version(len(b.records)) + 1,
		Offset:    off,
		Length:    in.Length,
		SizeAfter: size,
		capAfter:  capacityPages(size, b.pageSize),
	}
	// About two borrows per tree level.
	borrows := b.push(rec, make([]nodeRef, 0, 2*bits.Len64(uint64(rec.capAfter))))
	b.pending[rec.Version] = &pendingWrite{done: vm.env.NewSignal()}
	return Ticket{Record: rec, borrows: borrows, capBefore: capBefore(b.records, rec.Version)}
}

// PublishBatch declares the data and metadata of several versions of
// one blob fully written, in a single round trip: every version is
// marked ready and the frontier advanced under one lock hold. It blocks
// until every version in the batch is visible — which happens once
// every earlier version has been published or aborted, the version
// manager's total-order guarantee — or resolved as aborted, and returns
// the first error. Cancellation of ctx cuts the visibility waits short
// with an error matching cluster.ErrCanceled; every member is marked
// ready before the waits begin, so it stays ready and will publish in
// ticket order unless the caller aborts it — the frontier never depends
// on the canceled waiter.
func (vm *VersionManager) PublishBatch(ctx *cluster.Ctx, from cluster.NodeID, blob BlobID, vs []Version) error {
	if len(vs) == 0 {
		return nil
	}
	waits := make([]pubWait, 0, len(vs))
	first := vm.resolve(from, blob, vs, false, &waits)
	for _, w := range waits {
		err := ctx.Wait(w.p.done)
		if err == nil {
			err = vm.checkPublished(blob, w.v, w.p)
		}
		if err != nil && first == nil {
			first = err
		}
	}
	return first
}

// pubWait is a PublishBatch member still pending once the call has
// marked it ready: the caller waits for its visibility.
type pubWait struct {
	v Version
	p *pendingWrite
}

// resolve charges one round trip and, under one hold of vm.mu, marks
// every member of vs ready (or, with abort, tombstones it), then
// advances the blob's frontier once. A publish appends each member that
// is still pending to waits. It returns the first per-member error.
func (vm *VersionManager) resolve(from cluster.NodeID, blob BlobID, vs []Version, abort bool, waits *[]pubWait) error {
	vm.env.RTT(from, vm.node)
	vm.serve()
	vm.mu.Lock()
	defer vm.mu.Unlock()
	b, ok := vm.blobs[blob]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoSuchBlob, blob)
	}
	var first error
	for _, v := range vs {
		var err error
		if abort {
			err = vm.applyAbortLocked(b, blob, v)
		} else {
			var p *pendingWrite
			p, err = vm.applyPublishLocked(b, blob, v)
			if p != nil {
				*waits = append(*waits, pubWait{v: v, p: p})
			}
		}
		if err != nil && first == nil {
			first = err
		}
	}
	vm.advanceLocked(b)
	return first
}

// checkPublished reports whether a version whose visibility signal
// fired was published or aborted underneath its publisher.
func (vm *VersionManager) checkPublished(blob BlobID, v Version, p *pendingWrite) error {
	vm.mu.Lock()
	aborted := p.aborted
	vm.mu.Unlock()
	if aborted {
		return fmt.Errorf("%w: %d@%d", ErrAborted, blob, v)
	}
	return nil
}

// applyPublishLocked marks v ready and returns its pending entry. A nil
// entry with nil error means the version was already published
// (idempotent re-publish).
func (vm *VersionManager) applyPublishLocked(b *blobState, blob BlobID, v Version) (*pendingWrite, error) {
	p, ok := b.pending[v]
	if !ok {
		if v == 0 || int(v) > len(b.records) {
			return nil, fmt.Errorf("%w: %d@%d", ErrNoSuchVersion, blob, v)
		}
		if b.records[int(v)-1].Aborted {
			return nil, fmt.Errorf("%w: %d@%d", ErrAborted, blob, v)
		}
		return nil, nil // already published
	}
	if p.aborted {
		return nil, fmt.Errorf("%w: %d@%d", ErrAborted, blob, v)
	}
	p.ready = true
	return p, nil
}

// applyAbortLocked tombstones v if it is still pending. Its record stays
// — tickets already issued may name its nodes as borrows — but later
// borrows, pageOwner and the publication order skip it, and it never
// becomes the visible snapshot. Aborting an already aborted version is a
// no-op, and so is aborting a published one: a visible snapshot cannot
// be retracted. An unknown version is ErrNoSuchVersion.
func (vm *VersionManager) applyAbortLocked(b *blobState, blob BlobID, v Version) error {
	p, ok := b.pending[v]
	if !ok {
		if v == 0 || int(v) > len(b.records) {
			return fmt.Errorf("%w: %d@%d", ErrNoSuchVersion, blob, v)
		}
		return nil // already aborted or published
	}
	if p.aborted {
		return nil
	}
	p.aborted = true
	b.records[int(v)-1].Aborted = true
	p.done.Fire()
	return nil
}

// isAborted reports whether version v of a blob has been tombstoned.
// Readers use it to distinguish a dangling metadata link left by an
// aborted writer (a hole) from genuine metadata loss (an error).
func (vm *VersionManager) isAborted(from cluster.NodeID, blob BlobID, v Version) (bool, error) {
	vm.env.RTT(from, vm.node)
	vm.serve()
	vm.mu.Lock()
	defer vm.mu.Unlock()
	b, ok := vm.blobs[blob]
	if !ok {
		return false, fmt.Errorf("%w: %d", ErrNoSuchBlob, blob)
	}
	if v == 0 || int(v) > len(b.records) {
		return false, fmt.Errorf("%w: %d@%d", ErrNoSuchVersion, blob, v)
	}
	return b.records[int(v)-1].Aborted, nil
}

// abortBatch tombstones every still-pending member of one blob's
// version batch (writer failure) in a single round trip. All members are
// resolved under one lock hold, which yields the guarantee the client's
// failure reporting relies on: since the publication frontier also only
// moves under that lock, the members of a contiguously-ticketed batch
// that remain published afterwards form a contiguous prefix — a
// canceled batch can never leave a published member stranded past an
// aborted one. Already-aborted members are skipped and already-published
// ones are left alone; the first other error is returned.
func (vm *VersionManager) abortBatch(from cluster.NodeID, blob BlobID, vs []Version) error {
	if len(vs) == 0 {
		return nil
	}
	return vm.resolve(from, blob, vs, true, nil)
}

// advanceLocked publishes ready versions in order, skipping aborted
// ones, and wakes their publishers and any publication waiters.
func (vm *VersionManager) advanceLocked(b *blobState) {
	defer func() {
		kept := b.pubWaiters[:0]
		for _, w := range b.pubWaiters {
			if w.v <= b.published {
				w.sig.Fire()
			} else {
				kept = append(kept, w)
			}
		}
		b.pubWaiters = kept
	}()
	for {
		next := b.published + 1
		p, ok := b.pending[next]
		if !ok {
			if int(next) > len(b.records) {
				return // nothing further assigned
			}
			// Assigned but no pending entry: already resolved.
			b.published = next
			continue
		}
		if p.aborted {
			b.published = next
			delete(b.pending, next)
			continue
		}
		if !p.ready {
			return
		}
		b.published = next
		delete(b.pending, next)
		p.done.Fire()
	}
}

// awaitPublished blocks until the publication frontier reaches v
// (published or aborted): after it returns nil, reads of any
// non-aborted version <= v are valid. Concurrent writers use it to
// merge boundary pages against their true predecessor instead of
// racing it. A canceled ctx wakes the wait early with an error
// matching cluster.ErrCanceled; the abandoned waiter entry is swept
// when the frontier eventually passes v.
func (vm *VersionManager) awaitPublished(ctx *cluster.Ctx, from cluster.NodeID, blob BlobID, v Version) error {
	vm.env.RTT(from, vm.node)
	vm.serve()
	_, sig, err := vm.watch(blob, v, func(*blobState) Version { return v })
	if err != nil || sig == nil {
		return err
	}
	return ctx.Wait(sig)
}

// pageOwner returns the newest non-aborted version below v that created
// page's leaf, once the frontier has reached it (one round trip, like
// awaitPublished), or 0 for a hole; a creator that aborts meanwhile is
// passed over for the next older one. Every writer merges the pages it
// touches, so the page's bytes as of v-1 read the same at its leaf
// creator as at the newest version whose byte span covers them.
func (vm *VersionManager) pageOwner(ctx *cluster.Ctx, from cluster.NodeID, blob BlobID, v Version, page int64) (Version, error) {
	vm.env.RTT(from, vm.node)
	vm.serve()
	for {
		w, sig, err := vm.watch(blob, v, func(b *blobState) Version { return b.creator(v-1, pageRange{off: page, count: 1}) })
		if err != nil || sig == nil {
			return w, err
		}
		if err := ctx.Wait(sig); err != nil {
			return 0, err
		}
	}
}

// watch picks, under one lock hold, a version of blob with target (v
// must be assigned) and, unless the publication frontier has already
// reached it, parks a waiter that fires once it does.
func (vm *VersionManager) watch(blob BlobID, v Version, target func(*blobState) Version) (Version, cluster.Signal, error) {
	vm.mu.Lock()
	defer vm.mu.Unlock()
	b, ok := vm.blobs[blob]
	if !ok {
		return 0, nil, fmt.Errorf("%w: %d", ErrNoSuchBlob, blob)
	}
	if int(v) > len(b.records) {
		return 0, nil, fmt.Errorf("%w: %d@%d", ErrNoSuchVersion, blob, v)
	}
	w := target(b)
	if w <= b.published {
		return w, nil, nil
	}
	sig := vm.env.NewSignal()
	b.pubWaiters = append(b.pubWaiters, pubWaiter{v: w, sig: sig})
	return w, sig, nil
}

// latest returns the newest published, non-aborted version and its
// size. An empty blob reports version 0, size 0.
func (vm *VersionManager) latest(from cluster.NodeID, blob BlobID) (Version, int64, error) {
	rec, ok, err := vm.latestRecord(from, blob)
	if err != nil || !ok {
		return 0, 0, err
	}
	return rec.Version, rec.SizeAfter, nil
}

// latestRecord returns the newest published, non-aborted version's
// record. ok is false for an empty blob.
func (vm *VersionManager) latestRecord(from cluster.NodeID, blob BlobID) (WriteRecord, bool, error) {
	vm.env.RTT(from, vm.node)
	vm.serve()
	vm.mu.Lock()
	defer vm.mu.Unlock()
	b, ok := vm.blobs[blob]
	if !ok {
		return WriteRecord{}, false, fmt.Errorf("%w: %d", ErrNoSuchBlob, blob)
	}
	for v := b.published; v >= 1; v-- {
		rec := b.records[int(v)-1]
		if !rec.Aborted {
			return rec, true, nil
		}
	}
	return WriteRecord{}, false, nil
}

// clone creates a new blob sharing everything up to (and including)
// published version v of the source: an O(published-versions) copy of
// the records, indexed afresh, and zero data movement — the cheap
// branching the lineage systems (GFS, BlobSeer) advertise. The clone's
// own writes continue from version v+1 in its private key space;
// source and clone never see each other's subsequent writes.
func (vm *VersionManager) clone(from cluster.NodeID, source BlobID, v Version) (BlobID, error) {
	vm.env.RTT(from, vm.node)
	vm.serve()
	vm.mu.Lock()
	defer vm.mu.Unlock()
	src, ok := vm.blobs[source]
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrNoSuchBlob, source)
	}
	if v == 0 || v > src.published {
		return 0, fmt.Errorf("%w: %d@%d (not published)", ErrNoSuchVersion, source, v)
	}
	if src.records[int(v)-1].Aborted {
		return 0, fmt.Errorf("%w: %d@%d", ErrAborted, source, v)
	}
	// The clone's id comes off this shard's stride sequence, so a clone
	// always lives on its source's shard (the records copy below stays
	// a local operation) and routing stays a pure function of the id.
	id := vm.nextID
	vm.nextID += vm.stride
	b := newBlobState(src.pageSize)
	var scratch []nodeRef // the copied versions' borrows are not needed again
	for _, rec := range src.records[:v] {
		scratch = b.push(rec, scratch[:0])
	}
	b.published = v
	vm.blobs[id] = b
	return id, nil
}

// GetVersion returns the record of a published version (aborted
// versions and unpublished tickets are not readable snapshots).
func (vm *VersionManager) GetVersion(from cluster.NodeID, blob BlobID, v Version) (WriteRecord, error) {
	vm.env.RTT(from, vm.node)
	vm.serve()
	vm.mu.Lock()
	defer vm.mu.Unlock()
	b, ok := vm.blobs[blob]
	if !ok {
		return WriteRecord{}, fmt.Errorf("%w: %d", ErrNoSuchBlob, blob)
	}
	if v == 0 || int(v) > len(b.records) || v > b.published {
		return WriteRecord{}, fmt.Errorf("%w: %d@%d", ErrNoSuchVersion, blob, v)
	}
	rec := b.records[int(v)-1]
	if rec.Aborted {
		return WriteRecord{}, fmt.Errorf("%w: %d@%d", ErrAborted, blob, v)
	}
	return rec, nil
}

// records returns the write records of every version up to the
// publication frontier — aborted ones included, tagged as such — in a
// single round trip: the batched alternative to calling GetVersion once
// per version.
func (vm *VersionManager) records(from cluster.NodeID, blob BlobID) ([]WriteRecord, error) {
	vm.env.RTT(from, vm.node)
	vm.serve()
	vm.mu.Lock()
	defer vm.mu.Unlock()
	b, ok := vm.blobs[blob]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNoSuchBlob, blob)
	}
	out := make([]WriteRecord, b.published)
	copy(out, b.records[:b.published])
	return out, nil
}

// blobIDs lists every registered blob id of this shard in ascending
// order (the repair sweep's work list). The blobs map — not the dense
// range up to nextID — is the source of truth: with per-shard stride
// allocation the id space is sparse, and a range scan would silently
// skip every id owned by another shard.
func (vm *VersionManager) blobIDs(from cluster.NodeID) []BlobID {
	vm.env.RTT(from, vm.node)
	vm.serve()
	vm.mu.Lock()
	defer vm.mu.Unlock()
	out := make([]BlobID, 0, len(vm.blobs))
	for id := range vm.blobs {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// published returns the highest published version (possibly aborted
// versions included in the count).
func (vm *VersionManager) published(from cluster.NodeID, blob BlobID) (Version, error) {
	vm.env.RTT(from, vm.node)
	vm.serve()
	vm.mu.Lock()
	defer vm.mu.Unlock()
	b, ok := vm.blobs[blob]
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrNoSuchBlob, blob)
	}
	return b.published, nil
}
