package stripecache

import "sync"

// Cache is a sharded, lock-striped LRU cache from string keys to byte
// slices. It is safe for concurrent use; operations on keys in
// different shards proceed without contending on a shared lock. See
// the package contract in doc.go.
type Cache struct {
	shards []shard
	mask   uint64
}

// entry is one cached key/value with intrusive LRU links (prev/next
// live in the entry itself, so list moves allocate nothing).
type entry struct {
	key        string
	val        []byte
	prev, next *entry
}

// shard is one lock stripe: a mutex, the key index, and an LRU list
// threaded through a sentinel (root.next = most recent, root.prev =
// least recent). The trailing pad keeps hot shards off each other's
// cache lines in the contiguous shard array.
type shard struct {
	mu  sync.Mutex
	m   map[string]*entry
	cap int
	// root is the list sentinel; the list is circular through it.
	root entry
	_    [24]byte // cache-line padding between adjacent shards
}

// New builds a cache with the given total capacity (entries) split
// evenly over the given number of shards. shards is rounded up to a
// power of two (minimum 1); capacity is clamped to at least one entry
// per shard. New(1, c) reproduces a single-mutex LRU of capacity c.
func New(shards, capacity int) *Cache {
	n := 1
	for n < shards {
		n <<= 1
	}
	perShard := (capacity + n - 1) / n
	if perShard < 1 {
		perShard = 1
	}
	c := &Cache{shards: make([]shard, n), mask: uint64(n - 1)}
	for i := range c.shards {
		s := &c.shards[i]
		s.m = make(map[string]*entry)
		s.cap = perShard
		s.root.prev = &s.root
		s.root.next = &s.root
	}
	return c
}

// shardFor routes a key to its lock stripe.
func (c *Cache) shardFor(key string) *shard {
	return &c.shards[hash64(key)&c.mask]
}

// Get returns the cached value for key and marks it most recently used
// in its shard.
func (c *Cache) Get(key string) ([]byte, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	e, ok := s.m[key]
	if !ok {
		s.mu.Unlock()
		return nil, false
	}
	s.moveToFront(e)
	v := e.val
	s.mu.Unlock()
	return v, true
}

// GetBytes is Get for keys rendered into byte buffers (strconv.Append*
// style): no key string is materialized — the compiler recognizes
// map[string(key)] lookups — so a hot-path hit costs zero allocations.
func (c *Cache) GetBytes(key []byte) ([]byte, bool) {
	s := &c.shards[hash64Bytes(key)&c.mask]
	s.mu.Lock()
	e, ok := s.m[string(key)]
	if !ok {
		s.mu.Unlock()
		return nil, false
	}
	s.moveToFront(e)
	v := e.val
	s.mu.Unlock()
	return v, true
}

// Contains reports whether key is cached without touching recency
// (tests and diagnostics; reads should use Get).
//
// bsfs-vet:allow deadexport -- no non-test caller: core's metadata-cache tests check residency with it, which Get cannot do without touching recency
func (c *Cache) Contains(key string) bool {
	s := c.shardFor(key)
	s.mu.Lock()
	_, ok := s.m[key]
	s.mu.Unlock()
	return ok
}

// Put inserts or overwrites key, marks it most recently used, and
// evicts its shard's least-recently-used entries while the shard is
// over capacity — so the just-inserted entry always survives.
func (c *Cache) Put(key string, val []byte) {
	s := c.shardFor(key)
	s.mu.Lock()
	if e, ok := s.m[key]; ok {
		e.val = val
		s.moveToFront(e)
		s.mu.Unlock()
		return
	}
	e := &entry{key: key, val: val}
	s.m[key] = e
	s.pushFront(e)
	for len(s.m) > s.cap {
		lru := s.root.prev
		s.unlink(lru)
		delete(s.m, lru.key)
	}
	s.mu.Unlock()
}

func (s *shard) pushFront(e *entry) {
	e.prev = &s.root
	e.next = s.root.next
	e.prev.next = e
	e.next.prev = e
}

func (s *shard) unlink(e *entry) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
}

func (s *shard) moveToFront(e *entry) {
	if s.root.next == e {
		return
	}
	e.prev.next = e.next
	e.next.prev = e.prev
	s.pushFront(e)
}

// FNV-1a constants (matching hash/fnv, so routing agrees with the
// metadata DHT's key hashing).
const (
	offset64 = 14695981039346656037
	prime64  = 1099511628211
)

// hash64 hashes a key without allocating: an inlined FNV-1a pass plus
// a splitmix64 finalizer to spread short, similar keys (page and tree
// node keys differ only in a few digits) uniformly over the shards.
func hash64(s string) uint64 {
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return mix64(h)
}

// hash64Bytes is hash64 for keys rendered into byte buffers; it
// produces the same hash as hash64 on the equivalent string, so both
// key forms route to the same shard.
func hash64Bytes(b []byte) uint64 {
	h := uint64(offset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return mix64(h)
}

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
