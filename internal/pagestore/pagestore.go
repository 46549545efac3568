// pagestore.go implements the cache tier: the RAM-resident LRU with
// dirty-page tracking, composed over an internal/store Backend. The
// package contract (aliasing, flush-on-close) lives in doc.go.

package pagestore

import (
	"container/list"
	"errors"
	"fmt"
	"sync"

	"repro/internal/store"
)

// ErrNotFound is returned when a key is absent.
var ErrNotFound = errors.New("pagestore: key not found")

// ErrEvicted is returned when a real entry's bytes were evicted and the
// backend (if any) cannot recover them.
var ErrEvicted = errors.New("pagestore: entry evicted and not recoverable from the backend")

// ErrClosed is returned by operations on a closed store: a closed store
// behaves like a dead process, even if a stale handle survives.
var ErrClosed = errors.New("pagestore: store closed")

// Config parameterizes a Store.
type Config struct {
	// MemCapacity bounds resident bytes (real or declared synthetic
	// size). 0 means unlimited.
	MemCapacity int64
	// Spec selects the persistent backend tier beneath the cache
	// ("disk:/var/bsfs", "mem:", "null:" — see internal/store). Empty
	// means a pure RAM cache: evicted real entries are unrecoverable and
	// nothing survives Close.
	Spec string
}

// Meta describes an entry without touching its data.
type Meta struct {
	Size      int64
	synthetic bool
	Resident  bool // counted against RAM right now
	dirty     bool // not yet flushed
}

type entry struct {
	key       string
	data      []byte // nil if synthetic or evicted
	size      int64
	synthetic bool
	dirty     bool
	resident  bool
	flushing  bool
	lruElem   *list.Element // non-nil while clean+resident
	logged    bool          // present in the backend
}

// Store is a concurrency-safe page store. The zero value is not usable;
// use Open.
type Store struct {
	cfg Config

	mu       sync.Mutex
	items    map[string]*entry
	lru      *list.List // clean resident entries, front = most recent
	dirtyQ   []string   // FIFO of dirty keys awaiting flush
	memBytes int64
	// dirtyBytes counts entries that are dirty and not yet taken by a
	// flush batch (O(1) backpressure queries).
	dirtyBytes int64
	backend    store.Backend
	recovered  int
	closed     bool

	// counters
	hits, misses, evictions uint64
}

// Open creates a store; with a backend spec, the backend's surviving
// index is replayed to rebuild the page index — restart recovery.
func Open(cfg Config) (*Store, error) {
	s := &Store{
		cfg:   cfg,
		items: make(map[string]*entry),
		lru:   list.New(),
	}
	if cfg.Spec != "" {
		be, err := store.Open(cfg.Spec)
		if err != nil {
			return nil, err
		}
		s.backend = be
		be.Walk(func(key string, m store.Meta) bool {
			s.items[key] = &entry{
				key:       key,
				size:      m.Size,
				synthetic: m.Synthetic,
				resident:  false,
				logged:    true,
			}
			return true
		})
		s.recovered = len(s.items)
	}
	return s, nil
}

// Close flushes every unflushed entry to the backend — both entries
// still queued for a flush batch and entries taken by an in-flight
// batch that never committed — then syncs and releases it. See the
// flush-on-close contract in doc.go. Close is idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.backend == nil {
		return nil
	}
	// Flush in dirty-queue order first (the order a provider's flusher
	// would have used), then any in-flight remainder.
	var err error
	flush := func(e *entry) {
		if !e.dirty {
			return
		}
		if !e.flushing {
			s.dirtyBytes -= e.size
		}
		if perr := s.backend.Put(e.key, e.data, e.size, e.synthetic); perr != nil && err == nil {
			err = perr
			return
		}
		e.dirty = false
		e.flushing = false
		e.logged = true
	}
	for _, key := range s.dirtyQ {
		if e, ok := s.items[key]; ok {
			flush(e)
		}
	}
	for _, e := range s.items {
		flush(e)
	}
	s.dirtyQ = nil
	if cerr := s.backend.Close(); err == nil {
		err = cerr
	}
	return err
}

// Recovered returns the number of entries replayed from the backend at
// Open — the size of the recovered page index.
func (s *Store) Recovered() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovered
}

// BackendSpec returns the canonical spec of the backend tier ("" for a
// pure RAM cache).
func (s *Store) BackendSpec() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.backend == nil {
		return ""
	}
	return s.backend.Spec()
}

// Put stores real bytes under key, overwriting any previous entry. The
// entry starts resident and dirty. The store keeps its own copy of
// data.
func (s *Store) Put(key string, data []byte) error {
	cp := make([]byte, len(data))
	copy(cp, data)
	return s.put(key, cp, int64(len(data)), false)
}

// PutSynthetic stores a size-only entry under key.
func (s *Store) PutSynthetic(key string, size int64) error {
	if size < 0 {
		return fmt.Errorf("pagestore: negative size %d", size)
	}
	return s.put(key, nil, size, true)
}

func (s *Store) put(key string, data []byte, size int64, synthetic bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	logged := false
	if old, ok := s.items[key]; ok {
		s.dropLocked(old)
		// The backend still holds the superseded version; remember that,
		// or a Delete before the next flush would skip the tombstone and
		// the old value would resurrect on restart.
		logged = old.logged
	}
	e := &entry{key: key, data: data, size: size, synthetic: synthetic, dirty: true, resident: true, logged: logged}
	s.items[key] = e
	s.memBytes += size
	s.dirtyBytes += size
	s.dirtyQ = append(s.dirtyQ, key)
	s.evictLocked()
	return nil
}

// GetInto returns a copy of the entry's data (nil for synthetic
// entries) and its metadata as seen *before* the call: callers use
// Meta.Resident to charge a disk read on a miss. A miss makes the entry
// resident again (read-through caching), which may evict others. The
// returned slice is the caller's — mutating it never touches the cache.
// The bytes are copied into alloc(size)'s result (which must be at
// least size bytes long), letting callers stage reads in pooled
// buffers, or into a fresh heap slice if alloc is nil. alloc runs under
// the store lock and must not call back into the store; it is never
// called for synthetic entries (their data is nil).
func (s *Store) GetInto(key string, alloc func(size int64) []byte) ([]byte, Meta, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, Meta{}, ErrClosed
	}
	e, ok := s.items[key]
	if !ok {
		return nil, Meta{}, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	return s.getLocked(e, alloc)
}

// GetBytesInto is GetInto for keys rendered into byte buffers: the
// index lookup goes through map[string(key)] (which the compiler keeps
// allocation-free), so a hot read pays no key-string materialization.
func (s *Store) GetBytesInto(key []byte, alloc func(size int64) []byte) ([]byte, Meta, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, Meta{}, ErrClosed
	}
	e, ok := s.items[string(key)]
	if !ok {
		return nil, Meta{}, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	return s.getLocked(e, alloc)
}

// GetResidentInto is GetBytesInto for entries sitting in RAM: a hit
// like any other, except that the bytes are copied (and alloc runs)
// after the lock is released — stored bytes are never modified in
// place, only dropped or replaced, so concurrent readers of one store
// do not queue behind each other's copies. Anything else — not
// resident, missing, closed — reports ok false and changes nothing (no
// miss is counted, nothing is faulted in), so a caller can copy
// resident pages itself and leave the ones that must wait for the
// backend to GetBytesInto.
func (s *Store) GetResidentInto(key []byte, alloc func(size int64) []byte) (data []byte, m Meta, ok bool) {
	s.mu.Lock()
	e := s.items[string(key)]
	if s.closed || e == nil || !e.resident {
		s.mu.Unlock()
		return nil, Meta{}, false
	}
	s.hitLocked(e)
	m, data = e.meta(), e.data
	s.mu.Unlock()
	return copyOut(data, alloc), m, true
}

func (e *entry) meta() Meta {
	return Meta{Size: e.size, synthetic: e.synthetic, Resident: e.resident, dirty: e.dirty}
}

// hitLocked counts a read of a resident entry and refreshes its LRU
// position.
func (s *Store) hitLocked(e *entry) {
	s.hits++
	if e.lruElem != nil {
		s.lru.MoveToFront(e.lruElem)
	}
}

func (s *Store) getLocked(e *entry, alloc func(size int64) []byte) ([]byte, Meta, error) {
	m := e.meta()
	if e.resident {
		s.hitLocked(e)
		return copyOut(e.data, alloc), m, nil
	}
	s.misses++
	// Fault the entry back in.
	if !e.synthetic {
		if s.backend == nil || !e.logged {
			return nil, m, fmt.Errorf("%w: %q", ErrEvicted, e.key)
		}
		data, err := s.backend.Get(e.key)
		if err != nil {
			if errors.Is(err, store.ErrNotFound) {
				return nil, m, fmt.Errorf("%w: %q", ErrEvicted, e.key)
			}
			return nil, m, err
		}
		e.data = data
	}
	e.resident = true
	s.memBytes += e.size
	if !e.dirty {
		e.lruElem = s.lru.PushFront(e)
	}
	// Snapshot before evictLocked: under memory pressure the entry we
	// just faulted in can be the first one evicted, which nils its data.
	out := copyOut(e.data, alloc)
	s.evictLocked()
	return out, m, nil
}

// copyOut copies b (nil stays nil) so callers never alias the cache,
// into alloc's buffer when one is provided.
func copyOut(b []byte, alloc func(int64) []byte) []byte {
	if b == nil {
		return nil
	}
	if alloc == nil {
		return append([]byte(nil), b...)
	}
	dst := alloc(int64(len(b)))[:len(b)]
	copy(dst, b)
	return dst
}

// Has reports whether an entry is stored under key, resident or not. It
// reads no page and counts no hit or miss.
func (s *Store) Has(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.items[key]
	return ok && !s.closed
}

// Delete removes an entry. Deleting a missing key is not an error. An
// entry the backend holds is removed there first: if that fails, the
// entry stays, so a restart does not bring back a page the store
// reported deleted, and the error is returned.
func (s *Store) Delete(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	e, ok := s.items[key]
	if !ok {
		return nil
	}
	if s.backend != nil && e.logged {
		if err := s.backend.Delete(key); err != nil {
			return fmt.Errorf("pagestore: delete %q: %w", key, err)
		}
	}
	s.dropLocked(e)
	return nil
}

// dropLocked removes the entry from all in-memory structures.
func (s *Store) dropLocked(e *entry) {
	if e.resident {
		s.memBytes -= e.size
	}
	if e.dirty && !e.flushing {
		s.dirtyBytes -= e.size
	}
	if e.lruElem != nil {
		s.lru.Remove(e.lruElem)
		e.lruElem = nil
	}
	delete(s.items, e.key)
	// Note: a stale dirtyQ reference may remain; TakeDirty skips keys
	// whose entry no longer exists or is no longer dirty.
}

// evictLocked enforces MemCapacity by evicting clean resident entries,
// least recently used first. Dirty and flushing entries are pinned.
func (s *Store) evictLocked() {
	if s.cfg.MemCapacity <= 0 {
		return
	}
	for s.memBytes > s.cfg.MemCapacity {
		back := s.lru.Back()
		if back == nil {
			return // everything else is pinned
		}
		e := back.Value.(*entry)
		s.lru.Remove(back)
		e.lruElem = nil
		e.resident = false
		s.memBytes -= e.size
		if !e.synthetic {
			e.data = nil
		}
		s.evictions++
	}
}

// TakeDirty dequeues up to maxBytes of dirty entries (at least one, if
// any are dirty) and marks them as being flushed. The caller performs
// the (modelled or real) disk write and then calls CommitFlush.
func (s *Store) TakeDirty(maxBytes int64) (keys []string, total int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.dirtyQ) > 0 {
		key := s.dirtyQ[0]
		e, ok := s.items[key]
		if !ok || !e.dirty || e.flushing {
			s.dirtyQ = s.dirtyQ[1:]
			continue
		}
		if len(keys) > 0 && maxBytes > 0 && total+e.size > maxBytes {
			break
		}
		s.dirtyQ = s.dirtyQ[1:]
		e.flushing = true
		s.dirtyBytes -= e.size
		keys = append(keys, key)
		total += e.size
	}
	return keys, total
}

// CommitFlush finalizes a flush batch: entries are written to the
// backend (if any), marked clean, and become evictable. After Close has
// flushed everything itself, a straggling CommitFlush is a no-op.
func (s *Store) CommitFlush(keys []string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, key := range keys {
		e, ok := s.items[key]
		if !ok || !e.flushing {
			continue // deleted, overwritten while flushing, or closed
		}
		if s.backend != nil && !s.closed {
			if err := s.backend.Put(key, e.data, e.size, e.synthetic); err != nil {
				return err
			}
			e.logged = true
		}
		e.flushing = false
		e.dirty = false
		if e.resident && e.lruElem == nil {
			e.lruElem = s.lru.PushFront(e)
		}
	}
	s.evictLocked()
	return nil
}

// DirtyBytes returns the total size of dirty entries not yet taken by
// a flush batch. O(1).
func (s *Store) DirtyBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dirtyBytes
}

// Stats reports cache behaviour counters and occupancy.
type Stats struct {
	Entries   int
	MemBytes  int64
	Hits      uint64
	Misses    uint64
	Evictions uint64
	// Recovered is the number of entries replayed from the backend at
	// Open.
	Recovered int
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Entries:   len(s.items),
		MemBytes:  s.memBytes,
		Hits:      s.hits,
		Misses:    s.misses,
		Evictions: s.evictions,
		Recovered: s.recovered,
	}
}

// Len returns the number of entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.items)
}
