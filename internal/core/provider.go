// provider.go implements BlobSeer's storage side: providers, which keep
// pages in a RAM-first store and persist them asynchronously. Which
// provider holds which page is decided by the placement subsystem
// (internal/placement): by default every page goes to its ring-
// preferred owners. The A1 ablation's local-first strategy lives in
// internal/bench and reaches placement through Options.Strategy.

package core

import (
	"fmt"
	"sync"

	"repro/internal/cluster"
	"repro/internal/pagestore"
)

// Provider stores pages on one node. Writes land in RAM and a
// background flusher persists them (the BerkeleyDB layer of the
// original system); reads are served from RAM when resident and charge
// a disk read otherwise.
type Provider struct {
	env   cluster.Env
	node  cluster.NodeID
	store *pagestore.Store

	mu      sync.Mutex
	bytesIn int64
	// flushing is set while a flusher runs. It stays set after a failed
	// commit, so no flusher starts again.
	flushing bool
	stopped  bool
	down     bool
}

const (
	// flushBatch caps the bytes persisted per flush round.
	flushBatch = 64 << 20
	// dirtyCap is the RAM write buffer: bytes put past it are throttled
	// to disk speed (backpressure: the paper's RAM-first write path only
	// helps while the buffer absorbs the burst).
	dirtyCap = 1 << 30
)

// ErrProviderDown is returned by operations on a failed provider.
var ErrProviderDown = fmt.Errorf("core: provider down")

// SetDown marks the provider unreachable (failure injection).
func (p *Provider) SetDown(down bool) {
	p.mu.Lock()
	p.down = down
	p.mu.Unlock()
}

// IsDown reports whether the provider is marked unreachable.
func (p *Provider) IsDown() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.down
}

// ProviderConfig parameterizes one provider.
type ProviderConfig struct {
	// MemCapacity bounds the RAM page cache (0 = unlimited).
	MemCapacity int64
	// Store selects the persistent backend tier beneath the RAM cache
	// ("disk:/var/bsfs", "mem:", "null:" — see internal/store). Empty
	// means a pure RAM store.
	Store string
}

// newProvider creates a provider on node. It runs no background work
// until the first put.
func newProvider(env cluster.Env, node cluster.NodeID, cfg ProviderConfig) (*Provider, error) {
	st, err := pagestore.Open(pagestore.Config{MemCapacity: cfg.MemCapacity, Spec: cfg.Store})
	if err != nil {
		return nil, err
	}
	return &Provider{env: env, node: node, store: st}, nil
}

// Node returns the hosting node.
func (p *Provider) Node() cluster.NodeID { return p.node }

// Store exposes the underlying page store (stats, tests).
func (p *Provider) Store() *pagestore.Store { return p.store }

// flushLoop persists dirty pages in the background, charging the
// node's disk; this is what keeps BlobSeer's write path off the disk's
// critical path. putPage starts it when none runs, and it exits once
// no page is dirty, so an idle provider runs nothing. It clears
// flushing in the same lock hold that sees no dirty byte: a put that
// lands later finds the flag clear and starts the next flusher. It
// stops at its next batch after Stop, and for good after a failed
// commit (flushing stays set).
func (p *Provider) flushLoop() {
	for {
		p.mu.Lock()
		done := p.stopped
		if !done && p.store.DirtyBytes() == 0 {
			p.flushing, done = false, true
		}
		p.mu.Unlock()
		if done {
			return
		}
		if _, err := p.flushOnce(); err != nil {
			return
		}
	}
}

// flushOnce persists one batch of dirty pages and reports whether
// there was one.
func (p *Provider) flushOnce() (bool, error) {
	batch, total := p.store.TakeDirty(flushBatch)
	if len(batch) == 0 {
		return false, nil
	}
	p.env.DiskWrite(p.node, total)
	return true, p.store.CommitFlush(batch)
}

// Stop ends background flushing: no flusher starts after it, and a
// running one exits at its next batch. Pages put later stay dirty
// until FlushNow.
func (p *Provider) Stop() {
	p.mu.Lock()
	p.stopped = true
	p.mu.Unlock()
}

// FlushNow synchronously persists all dirty pages (deterministic
// alternative to waiting for the flusher).
func (p *Provider) FlushNow() error {
	for {
		if more, err := p.flushOnce(); !more || err != nil {
			return err
		}
	}
}

// pastCap returns how many of n bytes put next land past dirtyCap: the
// share of a transfer that the provider's disk takes at disk speed.
func (p *Provider) pastCap(n int64) int64 {
	return min(n, max(0, p.store.DirtyBytes()+n-dirtyCap))
}

// putPage stores one page (data nil means synthetic of the given size).
// Like every provider call on the data path it charges nothing: it
// makes no Env call but to start the flusher, and the write's one
// transfer, Env.Scatter, carries the disk share (pastCap).
func (p *Provider) putPage(key string, data []byte, size int64) error {
	if p.IsDown() {
		return fmt.Errorf("%w: node %d", ErrProviderDown, p.node)
	}
	p.mu.Lock()
	p.bytesIn += size
	p.mu.Unlock()
	var err error
	if data == nil {
		err = p.store.PutSynthetic(key, size)
	} else {
		err = p.store.Put(key, data)
	}
	if err != nil {
		return err
	}
	// After the put: a flusher that sees no dirty byte has cleared the
	// flag by now, or it will see this page.
	p.mu.Lock()
	start := !p.flushing && !p.stopped
	if start {
		p.flushing = true
	}
	p.mu.Unlock()
	if start {
		// Go, not Daemon: a flush is disk work still owed, so a
		// simulation runs it to the end instead of ending it mid-flush.
		p.env.Go(p.flushLoop)
	}
	return nil
}

// pageFetch is one page read result.
type pageFetch struct {
	data     []byte // nil for synthetic pages
	size     int64
	fromDisk bool // the page was not RAM-resident
}

// getPageInto fetches one page by its byte-rendered key: no key
// string on the gather's hot path. A nil alloc returns a fresh copy.
// It charges nothing: the read's one transfer, Env.Gather, carries the
// disk share (fromDisk).
func (p *Provider) getPageInto(key []byte, alloc func(int64) []byte) (pageFetch, error) {
	if p.IsDown() {
		return pageFetch{}, fmt.Errorf("%w: node %d", ErrProviderDown, p.node)
	}
	data, meta, err := p.store.GetBytesInto(key, alloc)
	if err != nil {
		return pageFetch{}, fmt.Errorf("provider %d: %w", p.node, err)
	}
	return pageFetch{data: data, size: meta.Size, fromDisk: !meta.Resident}, nil
}

// residentPageInto is getPageInto for a page resident in the provider's
// RAM; ok false (no provider, down, missing, or a read that must wait
// for the backend) changes nothing and leaves the page to getPageInto.
func (p *Provider) residentPageInto(key []byte, alloc func(int64) []byte) (pageFetch, bool) {
	if p == nil || p.IsDown() {
		return pageFetch{}, false
	}
	data, meta, ok := p.store.GetResidentInto(key, alloc)
	return pageFetch{data: data, size: meta.Size}, ok
}

// deletePage removes a page copy from the provider's store (rebalance:
// the copy migrated to a preferred owner). Deleting a missing key is
// not an error; deleting on a down provider is, and so is a delete the
// store could not make durable.
func (p *Provider) deletePage(key string) error {
	if p.IsDown() {
		return fmt.Errorf("%w: node %d", ErrProviderDown, p.node)
	}
	return p.store.Delete(key)
}

// BytesStored returns the cumulative bytes ingested (the placement
// manager's load metric).
func (p *Provider) BytesStored() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.bytesIn
}
