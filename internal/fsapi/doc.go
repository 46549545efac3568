// Package fsapi defines the file-system contract the MapReduce
// framework programs against — the role Hadoop's FileSystem interface
// plays in the paper. Both BSFS (the contribution) and HDFS (the
// baseline) implement it, which is exactly how the paper swaps storage
// layers under an unmodified framework.
//
// # The contract
//
// FileSystem is the whole surface a framework needs: namespace
// operations (Stat, List, Mkdir, Rename, Delete), open/create/append
// returning Reader/Writer handles, BlockSize for split sizing, and
// BlockLocations for data-locality scheduling. Readers and writers
// carry both real-byte methods (io.Reader/io.ReaderAt/io.Writer) and
// size-only ones (ReadSyntheticAt, WriteSynthetic) so cluster-scale
// benchmarks move volumes without materializing them.
//
// Create, OpenAt and Append take functional OpenOptions shared by
// every implementation. The one option, AtVersion(v), pins an OpenAt
// to a published snapshot. Versioning file systems (BSFS) serve the
// frozen view; others return an error wrapping ErrNotSupported —
// typed, so callers can fall back deliberately instead of silently
// reading the wrong data.
//
// Implementations signal unsupported operations with errors wrapping
// the package's typed sentinels (ErrNotSupported, ErrNotFound, ...);
// callers match them with errors.Is. Capability discovery is by
// attempt, not by interface assertion — there is deliberately no
// BSFS-only side door for versioned reads.
package fsapi
