// Package pagestore implements the cache tier of the provider storage
// engine used by BlobSeer providers and HDFS datanodes: a RAM-resident
// page cache with LRU eviction and dirty-page tracking for
// asynchronous flushing, composed over a pluggable persistent backend
// (internal/store) selected by Config.Spec — "disk:<path>" for the
// segmented write-ahead page log, "mem:" or "null:" for tests and
// benchmarks, empty for a pure RAM cache.
//
// Together the two tiers stand in for the BerkeleyDB persistence layer
// of the original BlobSeer implementation (stdlib-only constraint)
// while preserving the behaviour the paper's evaluation depends on:
// writes land in RAM and are persisted asynchronously, so the write
// path is not synchronously disk-bound — unlike an HDFS datanode,
// which fsyncs chunks in the write pipeline.
//
// Entries may be real (carrying bytes) or synthetic (size only). The
// cluster-scale simulations use synthetic entries so that a 250 GB
// experiment does not allocate 250 GB; all capacity accounting uses the
// declared size either way, so cache hits and misses behave the same.
//
// # Aliasing
//
// The store never aliases caller memory in either direction: Put copies
// its input, and GetInto returns a slice the caller owns outright — it may
// be scribbled on, retained, or sent over a network without corrupting
// the cache or what a later flush writes to the backend.
//
// # Flush-on-close
//
// Close flushes every unflushed entry — dirty entries awaiting a flush
// batch and entries taken by an in-flight batch whose CommitFlush never
// ran — to the backend before releasing it, then syncs. A clean
// shutdown of a backed store therefore loses nothing: reopening the
// same Spec recovers the full page index from the log segments, every
// entry that was ever accepted and not deleted. Only a crash (no Close)
// can lose data, and then exactly the entries whose CommitFlush had not
// completed. Backends without a durability promise (mem:, null:) keep
// their own semantics; see the internal/store contract.
//
// # Memory layout and flush order
//
// The page index holds no pointer per page, so the collector traces no
// object for it. Entries are pointer-free structs in one slice, found
// through an open-addressed index on the key's hash; keys sit back to
// back in one byte arena, compacted once its dead bytes outnumber the
// live ones; the LRU links are slot numbers; real pages' bytes sit in a
// side slice made only once the store holds one. The dirty queue and
// TakeDirty's batches name a slot and its generation, which a delete
// advances. So an overwrite keeps the key's place in the flush order,
// while a key deleted and put again is flushed at its new place, not at
// the place of its deleted predecessor. Close writes what in-flight
// batches held in slot order: for a store opened empty, the same order
// on every run.
package pagestore
