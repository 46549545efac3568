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

// Provider stores pages on one node. Writes land in RAM and a flush
// daemon persists them in the background (the BerkeleyDB layer of the
// original system); reads are served from RAM when resident and charge
// a disk read otherwise.
type Provider struct {
	env   cluster.Env
	node  cluster.NodeID
	store *pagestore.Store

	mu       sync.Mutex
	bytesIn  int64
	flushSig cluster.Signal
	stopped  bool
	down     bool
}

const (
	// flushBatch caps the bytes persisted per flush round.
	flushBatch = 64 << 20
	// dirtyCap is the RAM write buffer: while unflushed bytes exceed it,
	// incoming page writes are throttled to disk speed (backpressure).
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

// newProvider creates a provider on node and starts its flush daemon.
func newProvider(env cluster.Env, node cluster.NodeID, cfg ProviderConfig) (*Provider, error) {
	st, err := pagestore.Open(pagestore.Config{MemCapacity: cfg.MemCapacity, Spec: cfg.Store})
	if err != nil {
		return nil, err
	}
	p := &Provider{
		env:      env,
		node:     node,
		store:    st,
		flushSig: env.NewSignal(),
	}
	env.Daemon(p.flushLoop)
	return p, nil
}

// Node returns the hosting node.
func (p *Provider) Node() cluster.NodeID { return p.node }

// Store exposes the underlying page store (stats, tests).
func (p *Provider) Store() *pagestore.Store { return p.store }

// flushLoop persists dirty pages in the background, charging the
// node's disk. It is event-driven: idle providers block on a signal
// fired by the next write, so an idle fleet costs nothing. This is
// what keeps BlobSeer's write path off the disk's critical path.
func (p *Provider) flushLoop() {
	for {
		p.mu.Lock()
		stopped := p.stopped
		sig := p.flushSig
		p.mu.Unlock()
		if stopped {
			return
		}
		keys, total := p.store.TakeDirty(flushBatch)
		if len(keys) == 0 {
			sig.Wait()
			// Re-arm: the signal just consumed is burnt (Fire is
			// idempotent), so the next idle wait needs a fresh one.
			// Re-arming here instead of on every wake keeps the signal
			// allocation off the per-put hot path: writers only ever
			// Fire. A put racing the swap either reads the old signal
			// (its page is already in the store, so the next TakeDirty
			// sees it) or the new one (which wakes the next wait).
			p.mu.Lock()
			if !p.stopped && p.flushSig == sig {
				p.flushSig = p.env.NewSignal()
			}
			p.mu.Unlock()
			continue
		}
		p.env.DiskWrite(p.node, total)
		if err := p.store.CommitFlush(keys); err != nil {
			return // durable layer failed; stop persisting (tests assert on this)
		}
	}
}

// wakeFlusher fires the flush signal. Firing is idempotent, so the
// per-put cost is one lock + one no-op after the first wake; the flush
// loop re-arms a fresh signal when it next goes idle.
func (p *Provider) wakeFlusher() {
	p.mu.Lock()
	sig := p.flushSig
	p.mu.Unlock()
	sig.Fire()
}

// Stop terminates the flush daemon (the Local env's daemons are real
// goroutines; stopping them keeps tests leak-free).
func (p *Provider) Stop() {
	p.mu.Lock()
	p.stopped = true
	sig := p.flushSig
	p.mu.Unlock()
	sig.Fire()
}

// FlushNow synchronously persists all dirty pages (deterministic
// alternative to waiting for the daemon).
func (p *Provider) FlushNow() error {
	for {
		keys, total := p.store.TakeDirty(flushBatch)
		if len(keys) == 0 {
			return nil
		}
		p.env.DiskWrite(p.node, total)
		if err := p.store.CommitFlush(keys); err != nil {
			return err
		}
	}
}

// putPage stores one page (data nil means synthetic of the given size).
func (p *Provider) putPage(key string, data []byte, size int64) error {
	if p.IsDown() {
		return fmt.Errorf("%w: node %d", ErrProviderDown, p.node)
	}
	p.mu.Lock()
	p.bytesIn += size
	p.mu.Unlock()
	// Backpressure: once the RAM write buffer is full, the writer is
	// throttled to disk speed for the overflow (the paper's RAM-first
	// write path only helps while the buffer absorbs the burst).
	if p.store.DirtyBytes() > dirtyCap {
		p.env.DiskWrite(p.node, size)
	}
	var err error
	if data == nil {
		err = p.store.PutSynthetic(key, size)
	} else {
		err = p.store.Put(key, data)
	}
	if err != nil {
		return err
	}
	p.wakeFlusher()
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
// not an error; deleting on a down provider is.
func (p *Provider) deletePage(key string) error {
	if p.IsDown() {
		return fmt.Errorf("%w: node %d", ErrProviderDown, p.node)
	}
	p.store.Delete(key)
	return nil
}

// BytesStored returns the cumulative bytes ingested (the placement
// manager's load metric).
func (p *Provider) BytesStored() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.bytesIn
}
