// shard.go implements the sharded version-manager tier: N independent
// VersionManager shards hosted on Options.VMNodes, glued together by a
// thin VersionRouter.
//
// Partitioning is per blob. Shard i allocates blob ids congruent to i
// modulo the shard count (per-shard stride/offset, see version.go), so
// the owning shard of any blob is the pure function id mod shards —
// the low bits of the id ARE the routing table. No lookup RPC, no
// shared state between shards: each keeps its own blob table and
// publication frontiers, and aggregate publish throughput scales with
// the shard count (experiment X5).
//
// A single-shard router is byte-for-byte the paper's centralized
// version manager: shard 0 of stride 1 allocates the dense sequence
// 1, 2, 3, ... and every operation routes to it.

package core

import (
	"sort"
	"sync"

	"repro/internal/cluster"
)

// VersionRouter fronts the version-manager shards of a deployment. It
// only routes: per-blob operations are the owning shard's methods,
// reached through Shard(blob), and the router itself carries just the
// tier-wide surface (blob creation, the merged blob list). Routing is
// computed from the blob id with no per-blob state, so the router is
// safe for concurrent use and adds no round trips.
type VersionRouter struct {
	shards []*VersionManager

	// next is the round-robin cursor CreateBlob uses to spread new
	// blobs over the shards.
	mu   sync.Mutex
	next int
}

// NewVersionRouter builds the version-manager tier: one shard per
// entry of opts.VMNodes, hosted on that node, with opts.VMServiceTime as
// its occupancy model (see NewVersionManagerShard).
func NewVersionRouter(env cluster.Env, opts Options) *VersionRouter {
	nodes := opts.VMNodes
	if len(nodes) == 0 {
		panic("core: version-manager tier needs at least one node")
	}
	r := &VersionRouter{shards: make([]*VersionManager, len(nodes))}
	for i, n := range nodes {
		r.shards[i] = NewVersionManagerShard(env, n, i, len(nodes), opts.VMServiceTime)
	}
	return r
}

// NumShards returns the shard count.
func (r *VersionRouter) NumShards() int { return len(r.shards) }

// Shards returns the shard managers in shard-index order.
func (r *VersionRouter) Shards() []*VersionManager { return r.shards }

// Nodes returns the shard hosting nodes in shard-index order.
func (r *VersionRouter) Nodes() []cluster.NodeID {
	out := make([]cluster.NodeID, len(r.shards))
	for i, s := range r.shards {
		out[i] = s.Node()
	}
	return out
}

// ShardIndex returns the owning shard index of a blob: the id modulo
// the shard count. Pure function — callers never pay a routing RPC.
func (r *VersionRouter) ShardIndex(blob BlobID) int {
	return int(blob % BlobID(len(r.shards)))
}

// Shard returns the owning shard manager of a blob.
func (r *VersionRouter) Shard(blob BlobID) *VersionManager {
	return r.shards[r.ShardIndex(blob)]
}

// CreateBlob registers a new blob on the next shard of the round-robin
// rotation and returns its id (which encodes the shard).
func (r *VersionRouter) CreateBlob(from cluster.NodeID, pageSize int64) (BlobID, error) {
	r.mu.Lock()
	s := r.shards[r.next]
	r.next = (r.next + 1) % len(r.shards)
	r.mu.Unlock()
	return s.CreateBlob(from, pageSize)
}

// Blobs lists every registered blob id across all shards in ascending
// id order — the repair sweep's merged cross-shard work list. One
// round trip per shard.
func (r *VersionRouter) Blobs(from cluster.NodeID) []BlobID {
	var out []BlobID
	for _, s := range r.shards {
		out = append(out, s.Blobs(from)...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
