// Package stripecache provides the sharded, lock-striped LRU cache
// behind the client's metadata cache: a fixed-capacity key/value store
// whose lock is split across many independent shards so concurrent
// readers and writers on different keys never serialize on one mutex.
//
// # Contract
//
// What may be cached: immutable values only. The intended payload is
// BlobSeer metadata tree nodes, which are immutable once written — a
// version's tree is never modified after publication, so a cached node
// can never go stale and the cache needs no invalidation protocol.
// This is the same argument the original BlobSeer client makes for its
// metadata cache, and it is why the package exposes no Delete: nothing
// a caller caches here is ever allowed to change. The one exception in
// this repository is the placement loop: core.Rebalancer rewrites the
// DHT leaves it re-replicates or migrates and writes the new value
// through its own cache (Put overwrites in place); other clients' stale
// leaves still name surviving replicas, so their reads keep working via
// replica failover.
//
// Values are stored and returned by reference. Callers must not mutate
// a slice after Put or after receiving it from Get.
//
// # Structure
//
// A key hashes (FNV-1a + finalizer, computed without allocation) to one
// of a power-of-two number of shards. Each shard owns a mutex, a map,
// and an intrusive doubly-linked LRU list — entries embed their own
// list links, so insertion costs one allocation for the entry and none
// for list bookkeeping. Capacity is fixed per shard (total capacity
// divided evenly); when a shard overflows, it evicts its own
// least-recently-used entries deterministically, independent of every
// other shard.
//
// New(1, capacity) degrades to a single mutex + one LRU list over the
// whole capacity: exact global LRU order, which the eviction tests
// rely on.
package stripecache
