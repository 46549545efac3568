// options.go defines the functional options of the blob-handle API.
// One write path (Client.writeBlocks) and one read path
// (Client.readCommon) serve every variant — single writes and batched
// appends, synthetic traffic, pinned versions, op-scoped cancellation
// — selected per call instead of
// per method, which is what keeps the Client surface small enough to
// stay a coherent storage contract (see doc.go).

package core

import (
	"repro/internal/cluster"
)

// opSettings is the resolved option set of one blob operation.
type opSettings struct {
	ctx      *cluster.Ctx
	version  Version // reads: snapshot to address (LatestVersion default)
	synthLen int64   // > 0: synthetic (size-only) operation of this length
	tenant   string  // admission tenant ("" = untenanted: bypasses admission)
}

func defaultSettings() opSettings {
	//bsfs-vet:allow ctxflow -- the options default: an op with no WithCtx is deliberately uncancellable
	return opSettings{ctx: cluster.Background(), version: LatestVersion}
}

func resolveReadOpts(opts []ReadOption) opSettings {
	s := defaultSettings()
	for _, o := range opts {
		o.applyRead(&s)
	}
	return s
}

func resolveWriteOpts(opts []WriteOption) opSettings {
	s := defaultSettings()
	for _, o := range opts {
		o.applyWrite(&s)
	}
	return s
}

// ReadOption configures one read-side operation (ReadAt, Locations,
// Snapshot, History, Latest).
type ReadOption interface{ applyRead(*opSettings) }

// WriteOption configures one write-side operation (WriteAt, Append).
type WriteOption interface{ applyWrite(*opSettings) }

// bothOption applies to reads and writes alike.
type bothOption func(*opSettings)

func (o bothOption) applyRead(s *opSettings)  { o(s) }
func (o bothOption) applyWrite(s *opSettings) { o(s) }

// readOption applies to reads only.
type readOption func(*opSettings)

func (o readOption) applyRead(s *opSettings) { o(s) }

// WithCtx scopes the operation to ctx: cancellation makes the
// operation return an error matching ErrCanceled promptly —
// in-flight provider fan-outs stop issuing work, await paths wake, and
// a write's version ticket is aborted so the publication frontier never
// wedges. A nil ctx means Background (never canceled).
func WithCtx(ctx *cluster.Ctx) interface {
	ReadOption
	WriteOption
} {
	return bothOption(func(s *opSettings) {
		if ctx == nil {
			//bsfs-vet:allow ctxflow -- WithCtx(nil) documents "explicitly uncancellable"
			ctx = cluster.Background()
		}
		s.ctx = ctx
	})
}

// WithTenant attributes the operation to an admission tenant. When the
// deployment runs with admission enabled (Options.TenantRate), a
// tenant-tagged data operation (ReadAt, WriteAt, Append) is charged
// against the tenant's token bucket at op entry — before any version
// ticket is taken — and rejected with an error matching ErrOverloaded
// when the tenant is over rate, so rejected work leaves no state
// behind. Admission is the tenant's only effect: the version manager
// never sees it. The empty id (the default) bypasses admission.
func WithTenant(id string) interface {
	ReadOption
	WriteOption
} {
	return bothOption(func(s *opSettings) { s.tenant = id })
}

// AtVersion pins a read-side operation to a published snapshot instead
// of the latest one.
func AtVersion(v Version) ReadOption {
	return readOption(func(s *opSettings) { s.version = v })
}

// Synthetic switches the operation to size-only mode: it moves no real
// bytes but drives the full protocol for n bytes (tickets, placement,
// scatter/gather accounting, metadata, publication) — the cluster-scale
// benchmarking mode. The operation's byte-slice argument must be nil.
func Synthetic(n int64) interface {
	ReadOption
	WriteOption
} {
	return bothOption(func(s *opSettings) { s.synthLen = n })
}

// Blocks wraps byte payloads as real append blocks, one version each.
func Blocks(payloads ...[]byte) []AppendBlock {
	out := make([]AppendBlock, len(payloads))
	for i, p := range payloads {
		out[i] = AppendBlock{Data: p}
	}
	return out
}

// SyntheticBlocks wraps byte counts as synthetic append blocks, one
// version each.
func SyntheticBlocks(sizes ...int64) []AppendBlock {
	out := make([]AppendBlock, len(sizes))
	for i, n := range sizes {
		out[i] = AppendBlock{Size: n}
	}
	return out
}
