// Package dht implements the distributed hash table BlobSeer stores its
// versioned metadata in: a consistent-hashing ring over a set of
// metadata provider nodes, with configurable replication.
//
// Servers are plain in-memory key-value stores hosted on cluster nodes;
// the Client routes keys to their replica sets and charges the
// environment for message latency and payload movement, batching
// whole-tree reads and writes into single scatter/gather transfers the
// way the BlobSeer client batches metadata I/O.
package dht

import (
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
		pts[v] = point{hash: hash64Bytes(b), node: n}
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
	return r.lookupAppend(make([]cluster.NodeID, 0, n), key, n)
}

// lookupAppend appends the replica set for key to dst and returns the
// extended slice. It is LookupN without the per-call allocation:
// callers looping over many keys pass the same backing slice (or a
// slice re-sliced to length 0) and reuse its capacity.
func (r *Ring) lookupAppend(dst []cluster.NodeID, key string, n int) []cluster.NodeID {
	return r.lookupHash(dst, hash64(key), n)
}

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
	// is tiny (<=3 in practice), so this beats allocating a seen-map on
	// every lookup — and Lookup runs once per metadata key on the client
	// hot path. The walk index wraps with one compare instead of a mod
	// per iteration.
	for j := 0; len(dst)-base < n && j < len(r.points); j++ {
		p := r.points[i]
		i++
		if i == len(r.points) {
			i = 0
		}
		dup := false
		for _, m := range dst[base:] {
			if m == p.node {
				dup = true
				break
			}
		}
		if !dup {
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

// hash64 hashes a string key: an inlined FNV-1a pass (hash/fnv's
// hasher costs a heap allocation per call; this costs none) plus a
// splitmix64 finalizer — FNV clusters on short, similar keys, and the
// finalizer scrambles the output so ring points spread uniformly.
func hash64(s string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return mix64(h)
}

// hash64Bytes is hash64 for appended byte keys; it must produce the
// same hash as hash64 on the equivalent string.
func hash64Bytes(b []byte) uint64 {
	h := uint64(fnvOffset64)
	for _, c := range b {
		h ^= uint64(c)
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

// Server is the metadata store hosted on one node.
type Server struct {
	mu   sync.Mutex
	m    map[string][]byte
	down bool
}

// SetDown marks the server unreachable (failure injection).
//
// bsfs-vet:allow deadexport -- no non-test caller: it is failure injection, which core's and rpcnet's tests use to take metadata servers down
func (s *Server) SetDown(down bool) {
	s.mu.Lock()
	s.down = down
	s.mu.Unlock()
}

// put stores values; returns false if the server is down.
func (s *Server) put(kvs map[string][]byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down {
		return false
	}
	for k, v := range kvs {
		s.m[k] = v
	}
	return true
}

// get reads values for keys; missing keys are absent from the result.
func (s *Server) get(keys []string) (map[string][]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down {
		return nil, false
	}
	out := make(map[string][]byte, len(keys))
	for _, k := range keys {
		if v, ok := s.m[k]; ok {
			out[k] = v
		}
	}
	return out, true
}

// keys returns the number of keys stored on this server.
func (s *Server) keys() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
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
		c.servers[n] = &Server{m: make(map[string][]byte)}
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

// BatchPut stores many keys, grouped per destination server, as one
// parallel round of messages plus one scatter transfer for the payload.
func (c *Client) BatchPut(kvs map[string][]byte) error {
	if len(kvs) == 0 {
		return nil
	}
	groups := make(map[cluster.NodeID]map[string][]byte, c.dht.ring.replication)
	var total int64
	var replicas []cluster.NodeID // reused across keys
	for k, v := range kvs {
		total += int64(len(k) + len(v))
		replicas = c.dht.ring.lookupAppend(replicas[:0], k, c.dht.ring.replication)
		for _, n := range replicas {
			g := groups[n]
			if g == nil {
				g = make(map[string][]byte)
				groups[n] = g
			}
			g[k] = v
		}
	}
	dests := make([]cluster.NodeID, 0, len(groups))
	for n := range groups {
		dests = append(dests, n)
	}
	slices.Sort(dests)
	// One round trip (requests go out in parallel) plus the payload.
	c.env.RTT(c.from, cluster.Farthest(c.env, c.from, dests))
	c.env.Scatter(c.from, dests, total*int64(c.dht.ring.replication))
	ok := false
	for _, n := range dests {
		if c.dht.servers[n].put(groups[n]) {
			ok = true
		}
	}
	if !ok {
		return fmt.Errorf("dht: all %d replica servers down", len(dests))
	}
	return nil
}

// Get fetches one key, trying replicas in order.
func (c *Client) Get(key string) ([]byte, error) {
	res, err := c.BatchGet([]string{key})
	if err != nil {
		return nil, err
	}
	v, ok := res[key]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	return v, nil
}

// BatchGet fetches many keys in one parallel round; replica failover is
// per key. Missing keys are simply absent from the result map.
func (c *Client) BatchGet(keys []string) (map[string][]byte, error) {
	if len(keys) == 0 {
		return map[string][]byte{}, nil
	}
	groups := make(map[cluster.NodeID][]string)
	var replicas []cluster.NodeID // reused across keys
	for _, k := range keys {
		replicas = c.dht.ring.lookupAppend(replicas[:0], k, c.dht.ring.replication)
		n := c.firstUp(replicas)
		groups[n] = append(groups[n], k)
	}
	srcs := make([]cluster.NodeID, 0, len(groups))
	for n := range groups {
		srcs = append(srcs, n)
	}
	sort.Slice(srcs, func(i, j int) bool { return srcs[i] < srcs[j] })
	out := make(map[string][]byte, len(keys))
	var total int64
	for _, n := range srcs {
		res, ok := c.dht.servers[n].get(groups[n])
		if !ok {
			continue
		}
		for k, v := range res {
			out[k] = v
			total += int64(len(k) + len(v))
		}
	}
	c.env.RTT(c.from, cluster.Farthest(c.env, c.from, srcs))
	c.env.Gather(c.from, srcs, total, 0)
	return out, nil
}

// firstUp returns the first live node of a replica set (or the primary
// if all are down; the read will then fail per key).
func (c *Client) firstUp(replicas []cluster.NodeID) cluster.NodeID {
	for _, n := range replicas {
		s := c.dht.servers[n]
		s.mu.Lock()
		down := s.down
		s.mu.Unlock()
		if !down {
			return n
		}
	}
	return replicas[0]
}
