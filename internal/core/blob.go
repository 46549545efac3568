// blob.go implements the blob handle, the unit of the client API: every
// per-blob operation hangs off a *Blob obtained from Client.CreateBlob
// or Client.OpenBlob, parameterized by functional options (options.go)
// instead of per-variant methods. The handle caches only the blob's page
// size: every write's history-dependent metadata (its borrowed tree
// children) arrives with its ticket from the version manager, so
// repeated operations on one blob pay no rediscovery round trips and
// hold no write history.

package core

import (
	"fmt"
)

// Blob is a handle to one blob, bound to the Client (and thus the
// node) that opened it. A Blob is safe for concurrent use.
type Blob struct {
	c        *Client
	id       BlobID
	pageSize int64
}

// ID returns the blob's id, valid across clients and shards.
func (b *Blob) ID() BlobID { return b.id }

// PageSize returns the blob's page size, cached at open time.
func (b *Blob) PageSize() int64 { return b.pageSize }

// Latest returns the newest published version and the blob size at it.
func (b *Blob) Latest(opts ...ReadOption) (Version, int64, error) {
	s := resolveReadOpts(opts)
	if err := s.ctx.Err(); err != nil {
		return 0, 0, canceled("latest", err)
	}
	return b.c.vm(b.id).latest(b.c.node, b.id)
}

// ReadAt fills p with bytes at offset off of the addressed snapshot
// (AtVersion pins one; the default is the latest published version).
// It returns the number of bytes read; short reads happen at the end
// of the blob. With Synthetic(n), p must be nil: the read path is
// traversed for n bytes without materializing data, and the count
// covered is returned — that mode also works on blobs written
// synthetically.
func (b *Blob) ReadAt(p []byte, off int64, opts ...ReadOption) (int64, error) {
	s := resolveReadOpts(opts)
	release, err := b.c.admit(s)
	if err != nil {
		return 0, err
	}
	defer release()
	if s.synthLen > 0 {
		if p != nil {
			return 0, fmt.Errorf("%w: Synthetic read with a non-nil buffer", ErrBadWrite)
		}
		return b.c.readCommon(s, b.id, b.pageSize, off, s.synthLen, nil)
	}
	return b.c.readCommon(s, b.id, b.pageSize, off, int64(len(p)), p)
}

// WriteAt stores p at offset off, producing and publishing a new
// version, which it returns. Unaligned boundaries are read-modified
// against the true predecessor snapshot. With Synthetic(n), p must be
// nil and a size-only write of n bytes is recorded. A write is a
// one-block batch through the same path as Append.
func (b *Blob) WriteAt(p []byte, off int64, opts ...WriteOption) (Version, error) {
	s := resolveWriteOpts(opts)
	block := AppendBlock{Data: p}
	if s.synthLen > 0 {
		if p != nil {
			return 0, fmt.Errorf("%w: Synthetic write with a non-nil buffer", ErrBadWrite)
		}
		block = AppendBlock{Size: s.synthLen}
	}
	vs, _, err := b.write(s, off, []AppendBlock{block})
	if err != nil {
		return 0, err // a one-block batch that failed published nothing
	}
	return vs[0], nil
}

// Append adds blocks at the end of the blob, one version per block,
// amortizing the version-manager round trips across the batch. Blocks
// are real (Data set) or synthetic (Size set); see Blocks and
// SyntheticBlocks. It returns the versions published in block order
// and the byte offset the first block landed at. An error means at
// least one block did not publish: a failure before publication aborts
// the whole batch, and when publication itself is cut short the
// published blocks — always a prefix — are returned alongside the
// error (see Client.writeBlocks).
func (b *Blob) Append(blocks []AppendBlock, opts ...WriteOption) ([]Version, int64, error) {
	return b.write(resolveWriteOpts(opts), -1, blocks)
}

// write admits the operation and runs the write protocol. Admission
// comes before the version tickets are requested: a rejected write
// never holds a ticket, so the publication frontier cannot wedge on
// rejected work.
func (b *Blob) write(s opSettings, off int64, blocks []AppendBlock) ([]Version, int64, error) {
	release, err := b.c.admit(s)
	if err != nil {
		return nil, 0, err
	}
	defer release()
	return b.c.writeBlocks(s, b.id, b.pageSize, off, blocks)
}

// Snapshot branches a new blob off a published snapshot (AtVersion
// pins one; default latest): O(1) data movement, copy-on-write
// thereafter. The returned handle addresses the new blob, which starts
// identical to the snapshot and diverges independently.
func (b *Blob) Snapshot(opts ...ReadOption) (*Blob, error) {
	s := resolveReadOpts(opts)
	if err := s.ctx.Err(); err != nil {
		return nil, canceled("snapshot", err)
	}
	v := s.version
	if v == LatestVersion {
		rec, ok, err := b.c.vm(b.id).latestRecord(b.c.node, b.id)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("%w: snapshotting an empty blob", ErrNoSuchVersion)
		}
		v = rec.Version
	}
	id, err := b.c.vm(b.id).clone(b.c.node, b.id, v)
	if err != nil {
		return nil, err
	}
	return b.c.OpenBlob(id)
}

// History returns the write records of every version up to the
// publication frontier — aborted ones included, tagged as such — in
// one batched version-manager round trip.
func (b *Blob) History(opts ...ReadOption) ([]WriteRecord, error) {
	s := resolveReadOpts(opts)
	if err := s.ctx.Err(); err != nil {
		return nil, canceled("history", err)
	}
	return b.c.vm(b.id).records(b.c.node, b.id)
}

// Locations exposes the page-to-provider distribution of a byte range
// of the addressed snapshot, the primitive the MapReduce scheduler's
// locality decisions consume (paper §III.B). It returns the holders
// named when each page was written: a locality hint that a later
// migration may make stale. Reads stay correct either way.
func (b *Blob) Locations(off, length int64, opts ...ReadOption) ([]PageLoc, error) {
	s := resolveReadOpts(opts)
	return b.c.locations(s, b.id, off, length)
}

// AwaitPublished blocks until the blob's publication frontier reaches
// v (published or aborted); a WithCtx option makes the wait
// cancellable.
func (b *Blob) AwaitPublished(v Version, opts ...ReadOption) error {
	s := resolveReadOpts(opts)
	return b.c.vm(b.id).awaitPublished(s.ctx, b.c.node, b.id, v)
}

// canceled wraps a cancellation cause with operation context; the
// result still matches ErrCanceled.
func canceled(op string, cause error) error {
	return fmt.Errorf("core: %s: %w", op, cause)
}
