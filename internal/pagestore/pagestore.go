// pagestore.go implements the cache tier: the RAM-resident LRU with
// dirty-page tracking, composed over an internal/store Backend. The
// package contract (aliasing, flush-on-close, memory layout, flush
// order) lives in doc.go.

package pagestore

import (
	"errors"
	"fmt"
	"hash/maphash"
	"slices"
	"strings"
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

// Entry flags.
const (
	live      uint8 = 1 << iota // the slot holds an entry, not a free-list link
	synthetic                   // size only, no bytes
	dirty                       // not yet flushed
	flushing                    // taken by a flush batch not yet committed
	resident                    // counted against RAM right now
	logged                      // present in the backend
	inLRU                       // linked into the LRU: clean and resident
)

// entry is one page's slot in Store.slots. It holds no pointer: its key
// is a window of Store.keys, its LRU neighbours are slot indices, and a
// real page's bytes sit in Store.data under the same index.
type entry struct {
	size           int64
	keyOff, keyLen uint32
	prev, next     int32  // LRU neighbours, more and less recent; next also links the free list
	gen            uint32 // advanced when the slot is freed, so stale queue and batch items miss
	flags          uint8
}

func (e *entry) is(f uint8) bool { return e.flags&f != 0 }

// cell is one index position: the low bits of the key's hash and its
// slot (0 marks an empty cell).
type cell struct {
	hash uint32
	slot int32
}

// Taken names one entry of a flush batch by its slot and the slot's
// generation, so CommitFlush reaches it with no lookup and skips it if
// it was deleted since.
type Taken struct {
	slot int32
	gen  uint32
}

// Store is a concurrency-safe page store. The zero value is not usable;
// use Open.
type Store struct {
	cfg  Config
	seed maphash.Seed

	mu sync.Mutex
	// slots[0] holds no entry: it anchors the circular LRU of clean
	// resident entries, its next the most recently used, its prev the
	// first evicted.
	slots    []entry
	free     int32    // first free slot, linked through next (0: none)
	index    []cell   // open-addressed by linear probing, at most 3/4 full
	keys     []byte   // every live entry's key, back to back
	deadKeys int      // bytes of keys that freed slots left behind
	data     [][]byte // real pages' bytes by slot; nil until a real page is put
	n        int      // live entries
	dirtyQ   []Taken  // FIFO of dirty entries awaiting flush
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
	s := &Store{cfg: cfg, seed: maphash.MakeSeed(), slots: make([]entry, 1)}
	if cfg.Spec != "" {
		be, err := store.Open(cfg.Spec)
		if err != nil {
			return nil, err
		}
		s.backend = be
		// Slots are given in key order, not in the backend's walk order,
		// so Close's slot-order pass is the same on every run.
		type replayed struct {
			key string
			m   store.Meta
		}
		var keys []replayed
		be.Walk(func(key string, m store.Meta) bool {
			keys = append(keys, replayed{key, m})
			return true
		})
		slices.SortFunc(keys, func(a, b replayed) int { return strings.Compare(a.key, b.key) })
		for _, r := range keys {
			h := maphash.String(s.seed, r.key)
			c, _ := find(s, h, r.key)
			e := &s.slots[s.insert(h, c, r.key)]
			e.size, e.flags = r.m.Size, live|logged
			if r.m.Synthetic {
				e.flags |= synthetic
			}
		}
		s.recovered = s.n
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
	// would have used), then any in-flight remainder in slot order.
	var err error
	flush := func(i int32) {
		e := &s.slots[i]
		if !e.is(dirty) {
			return
		}
		if !e.is(flushing) {
			s.dirtyBytes -= e.size
		}
		if perr := s.backend.Put(string(s.key(e)), s.bytes(i), e.size, e.is(synthetic)); perr != nil && err == nil {
			err = perr
			return
		}
		e.flags = e.flags&^(dirty|flushing) | logged
	}
	for _, t := range s.dirtyQ {
		if s.slots[t.slot].gen == t.gen {
			flush(t.slot)
		}
	}
	for i := range s.slots {
		flush(int32(i))
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
	return s.put(key, cp, int64(len(data)), 0)
}

// PutSynthetic stores a size-only entry under key.
func (s *Store) PutSynthetic(key string, size int64) error {
	if size < 0 {
		return fmt.Errorf("pagestore: negative size %d", size)
	}
	return s.put(key, nil, size, synthetic)
}

func (s *Store) put(key string, data []byte, size int64, kind uint8) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	h := maphash.String(s.seed, key)
	c, i := find(s, h, key)
	if i != 0 {
		// An overwrite keeps the slot, so its queue items still match.
		// The backend still holds the superseded version; remember that,
		// or a Delete before the next flush would skip the tombstone and
		// the old value would resurrect on restart.
		s.dropLocked(i)
		kind |= s.slots[i].flags & logged
	} else {
		i = s.insert(h, c, key)
	}
	s.setBytes(i, data)
	e := &s.slots[i]
	e.size, e.flags = size, live|dirty|resident|kind
	s.memBytes += size
	s.dirtyBytes += size
	s.dirtyQ = append(s.dirtyQ, Taken{i, e.gen})
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
	return get(s, maphash.String(s.seed, key), key, alloc)
}

// GetBytesInto is GetInto for keys rendered into byte buffers: the
// lookup hashes and compares the bytes in place, so a hot read pays no
// key-string materialization.
func (s *Store) GetBytesInto(key []byte, alloc func(size int64) []byte) ([]byte, Meta, error) {
	return get(s, maphash.Bytes(s.seed, key), key, alloc)
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
	_, i := find(s, maphash.Bytes(s.seed, key), key)
	if s.closed || i == 0 || !s.slots[i].is(resident) {
		s.mu.Unlock()
		return nil, Meta{}, false
	}
	s.hitLocked(i)
	m, data = s.slots[i].meta(), s.bytes(i)
	s.mu.Unlock()
	return copyOut(data, alloc), m, true
}

func (e *entry) meta() Meta {
	return Meta{Size: e.size, synthetic: e.is(synthetic), Resident: e.is(resident), dirty: e.is(dirty)}
}

// hitLocked counts a read of a resident entry and refreshes its LRU
// position.
func (s *Store) hitLocked(i int32) {
	s.hits++
	if s.slots[i].is(inLRU) {
		s.unlink(i)
		s.pushFront(i)
	}
}

// get is GetInto for key hashing to h.
func get[K string | []byte](s *Store, h uint64, key K, alloc func(size int64) []byte) ([]byte, Meta, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, Meta{}, ErrClosed
	}
	_, i := find(s, h, key)
	if i == 0 {
		return nil, Meta{}, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	e := &s.slots[i]
	m := e.meta()
	if e.is(resident) {
		s.hitLocked(i)
		return copyOut(s.bytes(i), alloc), m, nil
	}
	s.misses++
	// Fault the entry back in.
	if !e.is(synthetic) {
		if s.backend == nil || !e.is(logged) {
			return nil, m, fmt.Errorf("%w: %q", ErrEvicted, key)
		}
		data, err := s.backend.Get(string(key))
		if err != nil {
			if errors.Is(err, store.ErrNotFound) {
				return nil, m, fmt.Errorf("%w: %q", ErrEvicted, key)
			}
			return nil, m, err
		}
		s.setBytes(i, data)
	}
	e.flags |= resident
	s.memBytes += e.size
	if !e.is(dirty) {
		s.pushFront(i)
	}
	// Snapshot before evictLocked: under memory pressure the entry we
	// just faulted in can be the first one evicted, which nils its data.
	out := copyOut(s.bytes(i), alloc)
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
	_, i := find(s, maphash.String(s.seed, key), key)
	return i != 0 && !s.closed
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
	c, i := find(s, maphash.String(s.seed, key), key)
	if i == 0 {
		return nil
	}
	if s.backend != nil && s.slots[i].is(logged) {
		if err := s.backend.Delete(key); err != nil {
			return fmt.Errorf("pagestore: delete %q: %w", key, err)
		}
	}
	s.dropLocked(i)
	s.unindex(c)
	s.release(i)
	return nil
}

// dropLocked takes the entry out of the byte counts and the LRU.
func (s *Store) dropLocked(i int32) {
	e := &s.slots[i]
	if e.is(resident) {
		s.memBytes -= e.size
	}
	if e.is(dirty) && !e.is(flushing) {
		s.dirtyBytes -= e.size
	}
	if e.is(inLRU) {
		s.unlink(i)
	}
}

// evictLocked enforces MemCapacity by evicting clean resident entries,
// least recently used first. Dirty and flushing entries are pinned.
func (s *Store) evictLocked() {
	if s.cfg.MemCapacity <= 0 {
		return
	}
	for s.memBytes > s.cfg.MemCapacity && s.slots[0].prev != 0 {
		i := s.slots[0].prev
		s.unlink(i)
		e := &s.slots[i]
		e.flags &^= resident
		s.memBytes -= e.size
		s.setBytes(i, nil)
		s.evictions++
	}
}

// TakeDirty dequeues up to maxBytes of dirty entries (at least one, if
// any are dirty) and marks them as being flushed. The caller performs
// the (modelled or real) disk write and then calls CommitFlush.
func (s *Store) TakeDirty(maxBytes int64) (batch []Taken, total int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.dirtyQ) > 0 {
		t := s.dirtyQ[0]
		e := &s.slots[t.slot]
		if e.gen != t.gen || e.flags&(dirty|flushing) != dirty {
			s.dirtyQ = s.dirtyQ[1:]
			continue
		}
		if len(batch) > 0 && maxBytes > 0 && total+e.size > maxBytes {
			break
		}
		s.dirtyQ = s.dirtyQ[1:]
		e.flags |= flushing
		s.dirtyBytes -= e.size
		batch = append(batch, t)
		total += e.size
	}
	return batch, total
}

// CommitFlush finalizes a flush batch: entries are written to the
// backend (if any), marked clean, and become evictable. After Close has
// flushed everything itself, a straggling CommitFlush is a no-op.
func (s *Store) CommitFlush(batch []Taken) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, t := range batch {
		e := &s.slots[t.slot]
		if e.gen != t.gen || !e.is(flushing) {
			continue // deleted, overwritten while flushing, or closed
		}
		if s.backend != nil && !s.closed {
			if err := s.backend.Put(string(s.key(e)), s.bytes(t.slot), e.size, e.is(synthetic)); err != nil {
				return err
			}
			e.flags |= logged
		}
		e.flags &^= flushing | dirty
		if e.is(resident) && !e.is(inLRU) {
			s.pushFront(t.slot)
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
		Entries:   s.n,
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
	return s.n
}

func (s *Store) key(e *entry) []byte { return s.keys[e.keyOff : e.keyOff+e.keyLen] }

// bytes returns slot i's page bytes: nil if synthetic or evicted.
func (s *Store) bytes(i int32) []byte {
	if s.data == nil {
		return nil
	}
	return s.data[i]
}

// setBytes keeps b as slot i's page bytes, making the side array on
// the first real page.
func (s *Store) setBytes(i int32, b []byte) {
	if s.data == nil && b != nil {
		s.data = make([][]byte, len(s.slots), cap(s.slots))
	}
	if s.data != nil {
		s.data[i] = b
	}
}

// find returns the cell holding key (hashing to h) and its slot, or the
// empty cell where key belongs and slot 0.
func find[K string | []byte](s *Store, h uint64, key K) (c int, slot int32) {
	if len(s.index) == 0 {
		return 0, 0
	}
	mask := len(s.index) - 1
	for c = int(h) & mask; ; c = (c + 1) & mask {
		x := s.index[c]
		if x.slot == 0 || x.hash == uint32(h) && string(s.key(&s.slots[x.slot])) == string(key) {
			return c, x.slot
		}
	}
}

// insert gives key (hashing to h), which find placed in the empty cell
// c, a slot, reusing a free one first, and indexes it there.
func (s *Store) insert(h uint64, c int, key string) int32 {
	if 4*(s.n+1) > 3*len(s.index) {
		old := s.index
		s.index = make([]cell, max(16, 2*len(old)))
		for _, x := range old {
			if x.slot != 0 {
				c, _ := find(s, uint64(x.hash), s.key(&s.slots[x.slot]))
				s.index[c] = x
			}
		}
		c, _ = find(s, h, key)
	}
	i := s.free
	if i != 0 {
		s.free = s.slots[i].next
	} else {
		i = int32(len(s.slots))
		s.slots = append(s.slots, entry{})
		if s.data != nil {
			s.data = append(s.data, nil)
		}
	}
	e := &s.slots[i]
	e.keyOff, e.keyLen = uint32(len(s.keys)), uint32(len(key))
	s.keys = append(s.keys, key...)
	s.index[c] = cell{uint32(h), i}
	s.n++
	return i
}

// unindex empties cell c by backward shift: each later entry of the
// probe run that may sit at or before c moves back into the hole, so no
// lookup meets an empty cell before its key.
func (s *Store) unindex(c int) {
	mask := len(s.index) - 1
	for j := (c + 1) & mask; s.index[j].slot != 0; j = (j + 1) & mask {
		if x := s.index[j]; (j-int(x.hash))&mask >= (j-c)&mask {
			s.index[c] = x
			c = j
		}
	}
	s.index[c] = cell{}
}

// release frees slot i onto the free list, advancing its generation,
// and compacts the key arena once dead key bytes outnumber live ones.
func (s *Store) release(i int32) {
	e := &s.slots[i]
	s.deadKeys += int(e.keyLen)
	e.gen++
	e.flags, e.next, s.free = 0, s.free, i
	s.setBytes(i, nil)
	s.n--
	if 2*s.deadKeys <= len(s.keys) {
		return
	}
	keys := make([]byte, 0, len(s.keys)-s.deadKeys)
	for j := range s.slots {
		if e := &s.slots[j]; e.is(live) {
			off := len(keys)
			keys = append(keys, s.key(e)...)
			e.keyOff = uint32(off)
		}
	}
	s.keys, s.deadKeys = keys, 0
}

// pushFront links slot i into the LRU as its most recently used entry.
func (s *Store) pushFront(i int32) {
	e, first := &s.slots[i], s.slots[0].next
	e.flags |= inLRU
	e.prev, e.next = 0, first
	s.slots[first].prev, s.slots[0].next = i, i
}

// unlink takes slot i out of the LRU.
func (s *Store) unlink(i int32) {
	e := &s.slots[i]
	s.slots[e.prev].next, s.slots[e.next].prev = e.next, e.prev
	e.flags &^= inLRU
}
