// Package dht implements the distributed hash table BlobSeer stores its
// versioned metadata in: a consistent-hashing ring over a set of
// metadata provider nodes, with configurable replication.
//
// A Server, hosted on one cluster node, copies each key and value it is
// sent into an append-only arena of byte chunks and finds them through
// an open-addressed table of pointer-free entries, so the collector has
// nothing to trace per stored key. The Client routes keys to their
// replica sets by position and charges the environment for message
// latency and payload movement, batching whole-tree reads and writes
// into single scatter/gather transfers the way the BlobSeer client
// batches metadata I/O.
package dht

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"

	"repro/internal/cluster"
)

// ErrNotFound is returned when no replica holds a key.
var ErrNotFound = errors.New("dht: key not found")

// Ring is a consistent-hashing ring with virtual nodes. Membership is
// mutable: AddNode and RemoveNode insert or delete one node's virtual
// points, moving only the keys whose clockwise walk crosses the changed
// points (consistent hashing's minimal-movement property).
type Ring struct {
	mu          sync.RWMutex
	points      []point
	replication int
	vnodes      int
	nodes       []cluster.NodeID
}

type point struct {
	hash uint64
	node cluster.NodeID
}

// NewRing builds a ring over the given nodes. vnodes is the number of
// virtual points per node (>=1); replication is the number of distinct
// nodes each key is stored on (clamped to len(nodes)).
func NewRing(nodes []cluster.NodeID, vnodes, replication int) *Ring {
	if len(nodes) == 0 {
		panic("dht: ring needs at least one node")
	}
	if vnodes < 1 {
		vnodes = 1
	}
	if replication < 1 {
		replication = 1
	}
	if replication > len(nodes) {
		replication = len(nodes)
	}
	r := &Ring{replication: replication, vnodes: vnodes, nodes: append([]cluster.NodeID(nil), nodes...)}
	for _, n := range nodes {
		r.points = append(r.points, pointsFor(n, vnodes)...)
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return r
}

func pointsFor(n cluster.NodeID, vnodes int) []point {
	pts := make([]point, vnodes)
	// The hash input must stay byte-identical to the historical
	// fmt.Sprintf("%d|%d", n, v) rendering: these hashes ARE the ring
	// layout, and moving a point moves keys between nodes. Pinned by
	// TestPointsForFormatPinned.
	var buf [48]byte
	for v := 0; v < vnodes; v++ {
		b := strconv.AppendInt(buf[:0], int64(n), 10)
		b = append(b, '|')
		b = strconv.AppendInt(b, int64(v), 10)
		pts[v] = point{hash: hash64(b), node: n}
	}
	return pts
}

// Size returns the current member count.
func (r *Ring) Size() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.nodes)
}

// AddNode inserts a node's virtual points. Adding an existing member is
// a no-op.
func (r *Ring) AddNode(n cluster.NodeID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, m := range r.nodes {
		if m == n {
			return
		}
	}
	r.nodes = append(r.nodes, n)
	r.points = append(r.points, pointsFor(n, r.vnodes)...)
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// RemoveNode deletes a node's virtual points. Removing a non-member is
// a no-op. The last node cannot be removed (a ring is never empty).
func (r *Ring) RemoveNode(n cluster.NodeID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.nodes) == 1 {
		return
	}
	found := false
	for i, m := range r.nodes {
		if m == n {
			r.nodes = append(r.nodes[:i], r.nodes[i+1:]...)
			found = true
			break
		}
	}
	if !found {
		return
	}
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != n {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// LookupN returns the replica set for a key: the first n distinct
// nodes walking clockwise from the key's hash (n clamped to the
// current membership size).
func (r *Ring) LookupN(key string, n int) []cluster.NodeID {
	return r.lookupHash(make([]cluster.NodeID, 0, n), hash64(key), n)
}

// lookupHash appends the replica set for the key hashing to h to dst
// and returns the extended slice. It is LookupN without the per-call
// allocation: callers looping over many keys pass the same backing
// slice (or a slice re-sliced to length 0) and reuse its capacity.
func (r *Ring) lookupHash(dst []cluster.NodeID, h uint64, n int) []cluster.NodeID {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	base := len(dst)
	// Distinctness via a linear scan of the appended prefix: replication
	// is tiny (<=3 in practice), so this beats a seen-map per lookup. The
	// walk index wraps with one compare instead of a mod per iteration.
	for j := 0; len(dst)-base < n && j < len(r.points); j++ {
		p := r.points[i]
		i++
		if i == len(r.points) {
			i = 0
		}
		if !slices.Contains(dst[base:], p.node) {
			dst = append(dst, p.node)
		}
	}
	return dst
}

// FNV-1a constants (matching hash/fnv's 64-bit variant).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// hash64 hashes a key: an inlined FNV-1a pass (hash/fnv's hasher costs
// a heap allocation per call; this costs none) plus a splitmix64
// finalizer — FNV clusters on short, similar keys, and the finalizer
// scrambles the output so ring points spread uniformly. A key hashes
// alike as a string and as bytes.
func hash64[K string | []byte](k K) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(k); i++ {
		h ^= uint64(k[i])
		h *= fnvPrime64
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

// Server is the metadata store hosted on one node. Keys and values are
// copied back to back into chunks that start small and double up to a
// cap. Stored bytes are never rewritten (an overwrite appends and
// repoints its entry), so a window lookup returned stays valid while
// later puts fill its chunk. table holds the entries themselves,
// open-addressed by linear probing from their hash and kept at most
// three quarters full, so a probe reads no other array until a hash
// matches.
type Server struct {
	mu     sync.Mutex
	chunks [][]byte
	table  []entry
	n      int // entries in table
	down   bool
}

// entry locates one stored key, with its value right after it, in
// chunks[chunk-1]; chunk 0 marks an empty cell.
type entry struct {
	hash                       uint64
	chunk, off, keyLen, valLen uint32
}

const firstChunk, doublings = 256, 8 // 256 B, doubling up to 64 KiB

// SetDown marks the server unreachable (failure injection).
//
// bsfs-vet:allow deadexport -- no non-test caller: it is failure injection, which core's and rpcnet's tests use to take metadata servers down
func (s *Server) SetDown(down bool) {
	s.mu.Lock()
	s.down = down
	s.mu.Unlock()
}

// put copies key (hashing to h) and val into the arena and points key's
// entry at the copy: an overwrite repoints it (latest wins). It returns
// false if the server is down.
func (s *Server) put(h uint64, key, val []byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down {
		return false
	}
	n, last := len(key)+len(val), len(s.chunks)-1
	if last < 0 || cap(s.chunks[last])-len(s.chunks[last]) < n {
		s.chunks = append(s.chunks, make([]byte, 0, max(firstChunk<<min(len(s.chunks), doublings), n)))
		last++
	}
	c := s.chunks[last]
	e := entry{hash: h, chunk: uint32(last + 1), off: uint32(len(c)), keyLen: uint32(len(key)), valLen: uint32(len(val))}
	s.chunks[last] = append(append(c, key...), val...)
	cell, found := s.find(h, key)
	s.table[cell] = e
	if !found {
		if s.n++; 4*s.n > 3*len(s.table) {
			old := s.table
			s.table = make([]entry, 2*len(old))
			for _, e := range old {
				if e.chunk != 0 {
					cell, _ := s.find(e.hash, s.key(&e))
					s.table[cell] = e
				}
			}
		}
	}
	return true
}

// find returns the cell holding key (hashing to h), or the empty cell
// where it belongs.
func (s *Server) find(h uint64, key []byte) (cell int, found bool) {
	mask := len(s.table) - 1
	for cell = int(h) & mask; ; cell = (cell + 1) & mask {
		e := &s.table[cell]
		if e.chunk == 0 {
			return cell, false
		}
		if e.hash == h && bytes.Equal(s.key(e), key) {
			return cell, true
		}
	}
}

func (s *Server) key(e *entry) []byte { return s.chunks[e.chunk-1][e.off : e.off+e.keyLen] }

// lookup reads one key (hashing to h) as a window of the arena, capped
// so that appending to it copies; up is false if the server is down.
func (s *Server) lookup(h uint64, key []byte) (v []byte, up bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down {
		return nil, false
	}
	if cell, found := s.find(h, key); found {
		e := &s.table[cell]
		a := e.off + e.keyLen
		return s.chunks[e.chunk-1][a : a+e.valLen : a+e.valLen], true
	}
	return nil, true
}

// keys returns the number of keys stored on this server.
func (s *Server) keys() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Cluster is the fleet of metadata servers plus the ring that routes to
// them. It is shared by all clients of one deployment.
type Cluster struct {
	ring    *Ring
	servers map[cluster.NodeID]*Server
}

// NewCluster creates servers on the given nodes.
func NewCluster(nodes []cluster.NodeID, vnodes, replication int) *Cluster {
	c := &Cluster{ring: NewRing(nodes, vnodes, replication), servers: make(map[cluster.NodeID]*Server)}
	for _, n := range nodes {
		c.servers[n] = &Server{table: make([]entry, 8)}
	}
	return c
}

// Server returns the server on a node (nil if none).
//
// bsfs-vet:allow deadexport -- no non-test caller: core's and rpcnet's failure-injection tests reach servers through it
func (c *Cluster) Server(n cluster.NodeID) *Server { return c.servers[n] }

// TotalKeys sums stored keys across servers (incl. replicas).
func (c *Cluster) TotalKeys() int {
	total := 0
	for _, s := range c.servers {
		total += s.keys()
	}
	return total
}

// Client issues DHT operations from a specific cluster node, charging
// the environment for the messaging they cost.
type Client struct {
	env  cluster.Env
	dht  *Cluster
	from cluster.NodeID
}

// NewClient binds a client to a node.
func (c *Cluster) NewClient(env cluster.Env, from cluster.NodeID) *Client {
	return &Client{env: env, dht: c, from: from}
}

// BatchPut is Store over a map.
func (c *Client) BatchPut(kvs map[string][]byte) error {
	keys, vals := make([][]byte, 0, len(kvs)), make([][]byte, 0, len(kvs))
	for k, v := range kvs {
		keys, vals = append(keys, []byte(k)), append(vals, v)
	}
	return c.Store(keys, vals)
}

// Store writes vals[i] under keys[i] on each key's replica set, as one
// parallel round of messages plus one scatter transfer for the payload.
// The servers copy what they store, so the caller may reuse both
// slices' bytes once Store returns. It fails only if every server it
// sends to is down.
func (c *Client) Store(keys, vals [][]byte) error {
	if len(keys) == 0 {
		return nil
	}
	r := c.dht.ring
	b := storePool.Get().(*storeBufs)
	defer storePool.Put(b)
	b.hs, b.routes, b.dests = b.hs[:0], b.routes[:0], b.dests[:0]
	var total int64
	var buf [4]cluster.NodeID
	for i, k := range keys {
		h := hash64(k)
		b.hs = append(b.hs, h)
		total += int64(len(k) + len(vals[i]))
		for _, n := range r.lookupHash(buf[:0], h, r.replication) {
			b.routes = append(b.routes, uint64(n)<<32|uint64(i))
		}
	}
	slices.Sort(b.routes)
	for _, rt := range b.routes {
		if n := cluster.NodeID(rt >> 32); len(b.dests) == 0 || b.dests[len(b.dests)-1] != n {
			b.dests = append(b.dests, n)
		}
	}
	// One round trip (requests go out in parallel) plus the payload.
	c.env.RTT(c.from, cluster.Farthest(c.env, c.from, b.dests))
	c.env.Scatter(c.from, b.dests, total*int64(r.replication), 0)
	ok := false
	for _, rt := range b.routes {
		i := uint32(rt)
		ok = c.dht.servers[cluster.NodeID(rt>>32)].put(b.hs[i], keys[i], vals[i]) || ok
	}
	if !ok {
		return fmt.Errorf("dht: all %d replica servers down", len(b.dests))
	}
	return nil
}

// storeBufs is Store's scratch, pooled: each key's hash, and a route per
// replica of a key packed as node<<32 | position (node ids are
// non-negative), so a plain sort groups them by node, ascending.
type storeBufs struct {
	hs, routes []uint64
	dests      []cluster.NodeID
}

var storePool = sync.Pool{New: func() any { return new(storeBufs) }}

// Get fetches one key, trying replicas in order.
func (c *Client) Get(key string) ([]byte, error) {
	vals := [][]byte{nil}
	c.Fetch([][]byte{[]byte(key)}, vals)
	if vals[0] == nil {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	return vals[0], nil
}

// Fetch reads many keys in one parallel round, one message per server
// it touches: each key from the first live server of its replica set
// (the primary if all are down, which then answers nothing). The value
// of keys[i] lands in vals[i], nil if absent, so a caller that renders
// its keys into one buffer pays for no key string and no result map.
func (c *Client) Fetch(keys, vals [][]byte) {
	if len(keys) == 0 {
		return
	}
	var srcs []cluster.NodeID // the servers asked, ascending
	var total int64
	var buf [4]cluster.NodeID
	for i, k := range keys {
		h := hash64(k)
		replicas := c.dht.ring.lookupHash(buf[:0], h, c.dht.ring.replication)
		n, v := replicas[0], []byte(nil)
		for _, r := range replicas {
			var up bool
			if v, up = c.dht.servers[r].lookup(h, k); up {
				n = r
				break
			}
		}
		if at, found := slices.BinarySearch(srcs, n); !found {
			srcs = slices.Insert(srcs, at, n)
		}
		if v != nil {
			total += int64(len(k) + len(v))
		}
		vals[i] = v
	}
	c.env.RTT(c.from, cluster.Farthest(c.env, c.from, srcs))
	c.env.Gather(c.from, srcs, total, 0)
}
