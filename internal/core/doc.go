// Package core implements BlobSeer, the versioning-oriented distributed
// blob store the paper builds its file system (BSFS) on.
//
// A blob is a large sequence of bytes split into fixed-size pages.
// Writes never modify data in place: every write or append produces a
// new version (snapshot) of the blob, while old versions remain
// readable. The architecture follows the paper (§III.A):
//
//   - providers store pages (RAM-first, asynchronously persisted);
//   - a provider manager assigns pages to providers with a
//     load-balancing strategy;
//   - metadata providers store versioned segment-tree nodes in a
//     distributed hash table (package dht);
//   - a version-manager tier assigns version numbers and publishes
//     snapshots in a per-blob total order, which is what keeps heavy
//     concurrent writes consistent without locking the data path. The
//     paper runs this as a single centralized node; this repository
//     partitions it per blob across Options.VMNodes (see shard.go) so
//     publish throughput scales past one node, while a single-shard
//     deployment behaves exactly like the paper's.
//
// # The client contract
//
// Deployment wires the services onto the nodes of a cluster.Env;
// Deployment.NewClient binds a Client to one node. The client API is
// handle-based: Client.CreateBlob / Client.OpenBlob return a *Blob
// carrying the blob's page size, and every per-blob operation is a
// Blob method parameterized by functional options instead of a method
// variant —
//
//	b, _ := client.OpenBlob(id)
//	b.ReadAt(buf, off)                         // latest snapshot
//	b.ReadAt(buf, off, core.AtVersion(v))      // pinned snapshot
//	b.ReadAt(nil, off, core.Synthetic(n))      // size-only traversal
//	b.WriteAt(data, off)                       // new published version (a batch of one)
//	b.Append(core.Blocks(p1, p2))              // batched append, one version per block
//	b.Snapshot(core.AtVersion(v))              // O(1) copy-on-write branch
//	b.History()                                // every version's WriteRecord
//	b.Locations(off, n)                        // page→provider map (scheduler locality)
//
// WriteAt and Append are one write path (Client.writeBlocks): a single
// write is a batch of one block, and a batch pays the version-manager
// round trips once.
//
// # Cancellation
//
// Every operation accepts core.WithCtx(ctx) with a cluster.Ctx —
// cancellation expressed in the environment's (possibly virtual) time.
// A canceled operation returns an error matching ErrCanceled promptly:
// a scatter stops before its next page put, a gather stops issuing
// provider reads and joins what is in flight, await paths wake, and a
// write whose ticket was already assigned aborts it, so the
// publication frontier never wedges on a canceled writer. Writes hold exactly one
// invariant under cancellation: the assigned version either publishes
// (cancellation lost the race) or is tombstoned — never leaked.
package core
