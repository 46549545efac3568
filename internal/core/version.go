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
// PublishBatchAsync, AbortBatch — and a single write is a batch of one:
// there is no per-version variant. Publication runs through a
// group-commit pipeline: publish and abort calls are enqueued and a
// single drainer applies whole batches under one lock acquisition,
// advancing each touched blob's published frontier once per batch and
// waking publishers and AwaitPublished waiters in one sweep, so clients
// amortize the manager round trip across many in-flight writes.

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
	// errAlreadyPublished is the per-member outcome of aborting a
	// version that has already been published: a visible snapshot can
	// never be retracted. AbortBatch tolerates it — the member is simply
	// left published — so no caller ever receives it.
	errAlreadyPublished = errors.New("core: version already published")
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
// Tenant attributes the write to an admission tenant (WithTenant); it
// rides the ticket into the WriteRecord so the group-commit drainer
// can assemble its batches fairly across tenants.
type WriteIntent struct {
	Off    int64
	Length int64
	Tenant string
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

	// Group-commit state: publish/abort requests queue here and a
	// single drainer daemon applies them batch-wise.
	//
	// The queue is fair across tenants: each enqueue call's requests
	// form one atomic group filed under the tenant that ticketed them
	// (per-tenant FIFO), and the drainer assembles every pass
	// round-robin across the tenants in order — so a hot tenant's
	// backlog delays a quiet tenant by at most one pass, never by the
	// backlog's length. Groups are never split across passes: the
	// batch-abort contiguous-prefix guarantee (see AbortBatch) needs a
	// whole client batch to resolve under one lock hold.
	queue    map[string][]pubGroup // per-tenant FIFO of enqueue groups
	order    []string              // round-robin rotation of tenants with queued work
	draining bool

	// applyTime > 0 models the drainer's per-request apply occupancy:
	// each pass holds the shard's commit processor for applyTime per
	// request of virtual time before applying. drainBatch caps how
	// many requests one pass assembles (0 = drain everything queued) —
	// the knob that makes drains incremental and tenant fairness
	// measurable. Both are zero in every deployment; the fairness test
	// sets them on a manager it builds itself.
	applyTime  time.Duration
	drainBatch int
}

// pubGroup is one enqueue call's requests: applied in the same drainer
// pass, always.
type pubGroup []*pubReq

// pubReq is one publish or abort routed through the group-commit
// queue. The drainer fills err/wait/p and fires done; the enqueuer
// then waits on wait (publishes only) for visibility.
type pubReq struct {
	blob  BlobID
	v     Version
	abort bool
	done  cluster.Signal // fired once the drainer applied the request
	err   error
	wait  cluster.Signal // publish: visibility signal (nil if already resolved)
	p     *pendingWrite  // publish: pending entry, for the post-wait abort check
}

type blobState struct {
	pageSize  int64
	records   []WriteRecord // index i = version i+1; includes pending
	index     creatorIndex  // over records, extended by push
	published Version       // latest published version
	pending   map[Version]*pendingWrite
	// pubWaiters are AwaitPublished and pageOwner callers parked until
	// the publication frontier reaches their version.
	pubWaiters []pubWaiter
}

func newBlobState(pageSize int64) *blobState {
	ix := creatorIndex{exact: make(map[PageRange]int), full: make(map[PageRange]int)}
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

// NewVersionManager creates a standalone (single-shard) version
// manager hosted on node: shard 0 of stride 1, allocating the dense id
// sequence 1, 2, 3, ... exactly as the paper's centralized manager.
func NewVersionManager(env cluster.Env, node cluster.NodeID) *VersionManager {
	return NewVersionManagerShard(env, node, 0, 1, 0)
}

// NewVersionManagerShard creates shard `shard` of a `stride`-shard
// version-manager tier, hosted on node. The shard allocates blob ids
// congruent to shard modulo stride (starting at the smallest such id
// >= 1), so the owning shard of any blob is the pure function
// id mod stride — no lookup table, no routing RPC. serviceTime is the
// sim occupancy model (Options.VMServiceTime), fixed for the manager's
// lifetime.
func NewVersionManagerShard(env cluster.Env, node cluster.NodeID, shard, stride int, serviceTime time.Duration) *VersionManager {
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
		queue:   make(map[string][]pubGroup),
	}
}

// Node returns the hosting node.
func (vm *VersionManager) Node() cluster.NodeID { return vm.node }

// ShardIndex returns this manager's shard index within its tier.
func (vm *VersionManager) ShardIndex() int { return vm.shard }

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

// CreateBlob registers a new blob with the given page size and returns
// its id — the next id of this shard's stride sequence, so the id
// itself encodes the owning shard. Version 0 (empty) is immediately
// readable.
func (vm *VersionManager) CreateBlob(from cluster.NodeID, pageSize int64) (BlobID, error) {
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

// PageSize returns the blob's page size.
func (vm *VersionManager) PageSize(from cluster.NodeID, blob BlobID) (int64, error) {
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
		Blob:      blob,
		Version:   Version(len(b.records)) + 1,
		Offset:    off,
		Length:    in.Length,
		SizeAfter: size,
		CapAfter:  capacityPages(size, b.pageSize),
		Tenant:    in.Tenant,
	}
	// About two borrows per tree level.
	borrows := b.push(rec, make([]nodeRef, 0, 2*bits.Len64(uint64(rec.CapAfter))))
	b.pending[rec.Version] = &pendingWrite{done: vm.env.NewSignal()}
	return Ticket{Record: rec, borrows: borrows, capBefore: capBefore(b.records, rec.Version)}
}

// PublishBatchAsync marks versions of one blob ready for publication
// without waiting for visibility — the AwaitPublication(false) path.
// It returns once the drainer has applied the whole batch: the
// versions will become visible in ticket order, observable through
// AwaitPublished or any later read. The first per-member error is
// returned.
func (vm *VersionManager) PublishBatchAsync(from cluster.NodeID, blob BlobID, vs []Version) error {
	if len(vs) == 0 {
		return nil
	}
	vm.env.RTT(from, vm.node)
	vm.serve()
	reqs := make([]*pubReq, len(vs))
	for i, v := range vs {
		reqs[i] = &pubReq{blob: blob, v: v, done: vm.env.NewSignal()}
	}
	vm.enqueue(reqs)
	var first error
	for _, req := range reqs {
		req.done.Wait() // applied by the drainer; bounded, never canceled
		if req.err != nil && first == nil {
			first = req.err
		}
	}
	return first
}

// PublishBatch declares the data and metadata of several versions of
// one blob fully written, in a single round trip: the whole batch
// enters the group-commit queue together, so the drainer marks every
// version ready and advances the frontier in one pass. It blocks until
// every version in the batch is visible — which happens once every
// earlier version has been published or aborted, the version manager's
// total-order guarantee — or resolved as aborted, and returns the first
// error. Cancellation of ctx cuts the visibility waits short with an
// error matching cluster.ErrCanceled; every member is still applied
// before the call returns, stays ready, and will publish in ticket
// order unless the caller aborts it — the frontier never depends on
// the canceled waiter.
func (vm *VersionManager) PublishBatch(ctx *cluster.Ctx, from cluster.NodeID, blob BlobID, vs []Version) error {
	if len(vs) == 0 {
		return nil
	}
	vm.env.RTT(from, vm.node)
	vm.serve()
	reqs := make([]*pubReq, len(vs))
	for i, v := range vs {
		reqs[i] = &pubReq{blob: blob, v: v, done: vm.env.NewSignal()}
	}
	vm.enqueue(reqs)
	var first error
	for _, req := range reqs {
		if err := vm.awaitPublishReq(ctx, req); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// awaitPublishReq waits for the drainer to apply a queued publish and
// then for the version's visibility. The apply wait is bounded (the
// drainer always drains) and never canceled; only the visibility wait
// honors ctx, so a canceled publisher still leaves its request fully
// applied — ready, and published once its predecessors resolve.
func (vm *VersionManager) awaitPublishReq(ctx *cluster.Ctx, req *pubReq) error {
	req.done.Wait()
	if req.err != nil || req.wait == nil {
		return req.err
	}
	if err := ctx.Wait(req.wait); err != nil {
		return err
	}
	return vm.checkPublished(req.blob, req.v, req.p)
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

// applyPublishLocked marks v ready. A nil wait with nil error means
// the version was already published (idempotent re-publish).
func (vm *VersionManager) applyPublishLocked(b *blobState, blob BlobID, v Version) (wait cluster.Signal, p *pendingWrite, err error) {
	p, ok := b.pending[v]
	if !ok {
		if v == 0 || int(v) > len(b.records) {
			return nil, nil, fmt.Errorf("%w: %d@%d", ErrNoSuchVersion, blob, v)
		}
		if b.records[int(v)-1].Aborted {
			return nil, nil, fmt.Errorf("%w: %d@%d", ErrAborted, blob, v)
		}
		return nil, nil, nil // already published
	}
	if p.aborted {
		return nil, nil, fmt.Errorf("%w: %d@%d", ErrAborted, blob, v)
	}
	p.ready = true
	return p.done, p, nil
}

// applyAbortLocked tombstones v if it is still pending. Its record stays
// — tickets already issued may name its nodes as borrows — but later
// borrows, pageOwner and the publication order skip it, and it never
// becomes the visible snapshot. Aborting an already aborted version is a
// no-op; an unknown version is ErrNoSuchVersion and a published one
// errAlreadyPublished.
func (vm *VersionManager) applyAbortLocked(b *blobState, blob BlobID, v Version) error {
	p, ok := b.pending[v]
	if !ok {
		if v == 0 || int(v) > len(b.records) {
			return fmt.Errorf("%w: %d@%d", ErrNoSuchVersion, blob, v)
		}
		if b.records[int(v)-1].Aborted {
			return nil // already aborted: idempotent
		}
		return fmt.Errorf("%w: %d@%d", errAlreadyPublished, blob, v)
	}
	if p.aborted {
		return nil
	}
	p.aborted = true
	b.records[int(v)-1].Aborted = true
	p.done.Fire()
	return nil
}

// IsAborted reports whether version v of a blob has been tombstoned.
// Readers use it to distinguish a dangling metadata link left by an
// aborted writer (a hole) from genuine metadata loss (an error).
func (vm *VersionManager) IsAborted(from cluster.NodeID, blob BlobID, v Version) (bool, error) {
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

// AbortBatch tombstones every still-pending member of one blob's
// version batch (writer failure) in a single round trip, riding the
// same group-commit queue as publishes. All members are resolved under
// one lock acquisition (they enter the drainer queue together, and the
// drainer applies a whole batch under one lock hold), which yields the
// guarantee the client's failure reporting relies on: since the
// publication frontier also only moves under that lock, the members of
// a contiguously-ticketed batch that remain published afterwards form
// a contiguous prefix — a canceled batch can never leave a published
// member stranded past an aborted one. Already-aborted members are
// skipped idempotently and already-published ones are left alone (a
// visible snapshot cannot be retracted); the first other error is
// returned.
func (vm *VersionManager) AbortBatch(from cluster.NodeID, blob BlobID, vs []Version) error {
	if len(vs) == 0 {
		return nil
	}
	vm.env.RTT(from, vm.node)
	vm.serve()
	tolerable := func(err error) bool {
		return err == nil || errors.Is(err, errAlreadyPublished)
	}
	reqs := make([]*pubReq, len(vs))
	for i, v := range vs {
		reqs[i] = &pubReq{blob: blob, v: v, abort: true, done: vm.env.NewSignal()}
	}
	vm.enqueue(reqs)
	var first error
	for _, req := range reqs {
		req.done.Wait()
		if !tolerable(req.err) && first == nil {
			first = req.err
		}
	}
	return first
}

// enqueue adds one call's requests to the group-commit queue as a
// single atomic group — filed under the tenant whose ticket produced
// them — and ensures a drainer is running. The group enters the queue
// together and is applied in one drainer pass, whole.
func (vm *VersionManager) enqueue(reqs []*pubReq) {
	vm.mu.Lock()
	t := vm.tenantOfLocked(reqs[0])
	if _, ok := vm.queue[t]; !ok {
		vm.order = append(vm.order, t)
	}
	vm.queue[t] = append(vm.queue[t], pubGroup(reqs))
	start := !vm.draining
	if start {
		vm.draining = true
	}
	vm.mu.Unlock()
	if start {
		vm.env.Daemon(vm.drainLoop)
	}
}

// tenantOfLocked resolves the tenant a request's version was ticketed
// under (one enqueue group is always one client call on one blob, so
// the first request speaks for the group). Unknown blobs or versions
// file under the untenanted bucket.
func (vm *VersionManager) tenantOfLocked(req *pubReq) string {
	b, ok := vm.blobs[req.blob]
	if !ok || req.v == 0 || int(req.v) > len(b.records) {
		return ""
	}
	return b.records[int(req.v)-1].Tenant
}

// takeBatchLocked assembles the next drainer pass: tenants are visited
// round-robin (rotating through vm.order), each contributing its
// oldest queued group per turn, until the queue empties or the pass
// budget (drainBatch) is met. Groups are never split, so a pass may
// exceed the budget by at most one group's length.
func (vm *VersionManager) takeBatchLocked() []*pubReq {
	var batch []*pubReq
	for len(vm.order) > 0 {
		t := vm.order[0]
		vm.order = vm.order[1:]
		groups := vm.queue[t]
		g := groups[0]
		if len(groups) == 1 {
			delete(vm.queue, t)
		} else {
			vm.queue[t] = groups[1:]
			vm.order = append(vm.order, t)
		}
		batch = append(batch, g...)
		if vm.drainBatch > 0 && len(batch) >= vm.drainBatch {
			break
		}
	}
	return batch
}

// drainLoop is the group-commit drainer: it repeatedly assembles a
// fair batch (takeBatchLocked), charges the modeled apply occupancy,
// and applies the batch under a single lock acquisition — every
// publish marked ready, every abort tombstoned, then one frontier
// advance (and thus one waiter wake-up sweep) per touched blob. It
// exits when the queue empties; the next enqueue restarts it.
func (vm *VersionManager) drainLoop() {
	for {
		vm.mu.Lock()
		batch := vm.takeBatchLocked()
		if len(batch) == 0 {
			vm.draining = false
			vm.mu.Unlock()
			return
		}
		vm.mu.Unlock()
		if vm.applyTime > 0 {
			// The commit processor is busy for applyTime per request;
			// slept outside the lock so ticket requests and reads on
			// this shard proceed while a batch commits.
			vm.env.Sleep(vm.applyTime * time.Duration(len(batch)))
		}
		vm.mu.Lock()
		touched := make(map[BlobID]*blobState)
		for _, req := range batch {
			b, ok := vm.blobs[req.blob]
			if !ok {
				req.err = fmt.Errorf("%w: %d", ErrNoSuchBlob, req.blob)
				continue
			}
			if req.abort {
				req.err = vm.applyAbortLocked(b, req.blob, req.v)
			} else {
				req.wait, req.p, req.err = vm.applyPublishLocked(b, req.blob, req.v)
			}
			if req.err == nil {
				touched[req.blob] = b
			}
		}
		for _, b := range touched {
			vm.advanceLocked(b)
		}
		vm.mu.Unlock()
		for _, req := range batch {
			req.done.Fire()
		}
	}
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

// AwaitPublished blocks until the publication frontier reaches v
// (published or aborted): after it returns nil, reads of any
// non-aborted version <= v are valid. Concurrent writers use it to
// merge boundary pages against their true predecessor instead of
// racing it. A canceled ctx wakes the wait early with an error
// matching cluster.ErrCanceled; the abandoned waiter entry is swept
// when the frontier eventually passes v.
func (vm *VersionManager) AwaitPublished(ctx *cluster.Ctx, from cluster.NodeID, blob BlobID, v Version) error {
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
// AwaitPublished), or 0 for a hole; a creator that aborts meanwhile is
// passed over for the next older one. Every writer merges the pages it
// touches, so the page's bytes as of v-1 read the same at its leaf
// creator as at the newest version whose byte span covers them.
func (vm *VersionManager) pageOwner(ctx *cluster.Ctx, from cluster.NodeID, blob BlobID, v Version, page int64) (Version, error) {
	vm.env.RTT(from, vm.node)
	vm.serve()
	for {
		w, sig, err := vm.watch(blob, v, func(b *blobState) Version { return b.creator(v-1, PageRange{Off: page, Count: 1}) })
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

// Latest returns the newest published, non-aborted version and its
// size. An empty blob reports version 0, size 0.
func (vm *VersionManager) Latest(from cluster.NodeID, blob BlobID) (Version, int64, error) {
	rec, ok, err := vm.LatestRecord(from, blob)
	if err != nil || !ok {
		return 0, 0, err
	}
	return rec.Version, rec.SizeAfter, nil
}

// LatestRecord returns the newest published, non-aborted version's
// record. ok is false for an empty blob.
func (vm *VersionManager) LatestRecord(from cluster.NodeID, blob BlobID) (WriteRecord, bool, error) {
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

// Clone creates a new blob sharing everything up to (and including)
// published version v of the source: an O(published-versions) copy of
// the records, indexed afresh, and zero data movement — the cheap
// branching the lineage systems (GFS, BlobSeer) advertise. The clone's
// own writes continue from version v+1 in its private key space;
// source and clone never see each other's subsequent writes.
func (vm *VersionManager) Clone(from cluster.NodeID, source BlobID, v Version) (BlobID, error) {
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

// Records returns the write records of every version up to the
// publication frontier — aborted ones included, tagged as such — in a
// single round trip: the batched alternative to calling GetVersion once
// per version.
func (vm *VersionManager) Records(from cluster.NodeID, blob BlobID) ([]WriteRecord, error) {
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

// Blobs lists every registered blob id of this shard in ascending
// order (the repair sweep's work list). The blobs map — not the dense
// range up to nextID — is the source of truth: with per-shard stride
// allocation the id space is sparse, and a range scan would silently
// skip every id owned by another shard.
func (vm *VersionManager) Blobs(from cluster.NodeID) []BlobID {
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

// Published returns the highest published version (possibly aborted
// versions included in the count).
func (vm *VersionManager) Published(from cluster.NodeID, blob BlobID) (Version, error) {
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
