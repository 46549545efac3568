// publish.go runs the version-manager publish workload and the four
// experiments built on it. N concurrent writers append fixed-size
// blocks through the BSFS writer pipeline, writer i to file i % Files,
// and the measured quantity is publish throughput — published versions
// per second of virtual time. Every block is one version, so the
// workload is metadata-bound by design: it exposes whether the
// per-version round trips to the version manager (ticket + publish)
// scale with writer count or flatten into a serial bottleneck.
//
//   - X2 (Files 1): every writer shares one blob, stressing one blob's
//     total order.
//   - X5 (Files = Writers): one blob per writer, spread round-robin over
//     the version-manager shards, stressing the manager tier itself.
//     Each shard models a per-RPC processing occupancy
//     (StorageOpts.VMServiceTime), so one centralized shard saturates
//     and sharding divides its queue.
//   - A6 runs X2 at the batching pipeline depth and at depth 2 (one
//     block per commit) and asserts batched publication is at least as
//     fast.
//   - A7 runs X5 with the tier sharded and collapsed to one shard and
//     asserts the sharded tier is at least as fast.

package bench

import (
	"fmt"

	"repro/internal/cluster"
)

// PublishOpts parameterizes the publish workload. Block size, pipeline
// depth, shard count and shard service time are the Storage fields
// BlockSize, MaxInFlightBlocks, VMShards and VMServiceTime.
type PublishOpts struct {
	// Writers is the number of concurrent writers (default 1).
	Writers int
	// Files is the number of files the writers spread over, writer i
	// appending to file i % Files (default 1: one shared blob).
	Files int
	// Blocks is the number of versions each writer publishes (default
	// 64). The workload is sized in versions, not bytes: publish
	// throughput is the metric.
	Blocks  int
	Storage StorageOpts
	Spec    ClusterSpec
}

func (o *PublishOpts) fillDefaults() {
	if o.Writers <= 0 {
		o.Writers = 1
	}
	if o.Files <= 0 {
		o.Files = 1
	}
	if o.Blocks <= 0 {
		o.Blocks = 64
	}
	o.Storage.Kind = "bsfs" // the workload exercises BlobSeer's version manager
	if o.Storage.BlockSize <= 0 {
		// Small enough that version-manager round trips are a visible
		// share of each commit.
		o.Storage.BlockSize = 1 * MB
	}
	if o.Storage.MaxInFlightBlocks <= 0 {
		o.Storage.MaxInFlightBlocks = 8
	}
}

// PublishResult is the outcome of one publish run.
type PublishResult struct {
	// Point carries the usual per-writer data throughput summary; the
	// caller names it.
	Point Point
	// Versions is the number of versions published (writers x blocks).
	Versions int
	// VersionsPerSec is the aggregate publish throughput over the
	// measured makespan.
	VersionsPerSec float64
}

// RunPublish runs the publish workload: Writers concurrent writers
// append Blocks blocks each, writer i to file i % Files; every block is
// one published version. The run fails if any file ends with a version
// count other than (writers on that file) x Blocks — no version may be
// lost or duplicated.
func RunPublish(opts PublishOpts) (PublishResult, error) {
	opts.fillDefaults()
	tb, err := NewTestbed(opts.Spec, opts.Storage)
	if err != nil {
		return PublishResult{}, err
	}
	path := func(f int) string { return fmt.Sprintf("/publish/f%04d", f) }
	blockSize := opts.Storage.BlockSize
	var res PublishResult
	var runErr error
	err = tb.Run(func() {
		// Create every file first, so the measured phase holds only the
		// append/publish traffic.
		fs := tb.bsfsSvc.NewFS(0)
		for f := 0; f < opts.Files; f++ {
			if runErr = createEmpty(fs, path(f)); runErr != nil {
				return
			}
		}
		res.Point, runErr = tb.phase("", int64(opts.Blocks)*blockSize, tb.clientNodes(opts.Writers), func(i int, c cluster.NodeID) error {
			return appendSynth(tb.NewFS(c), path(i%opts.Files), opts.Blocks, blockSize)
		})
		if runErr != nil {
			return
		}
		for f := 0; f < opts.Files; f++ {
			vs, err := fs.Versions(path(f))
			if err != nil {
				runErr = err
				return
			}
			res.Versions += len(vs)
			writers := opts.Writers / opts.Files
			if f < opts.Writers%opts.Files {
				writers++
			}
			if want := writers * opts.Blocks; len(vs) != want {
				runErr = fmt.Errorf("bench: publish file %d has %d versions, want %d", f, len(vs), want)
				return
			}
		}
	})
	if err == nil {
		err = runErr
	}
	if d := res.Point.Duration; d > 0 {
		res.VersionsPerSec = float64(res.Versions) / d.Seconds()
	}
	return res, err
}

// RunPublishAblation is ablation A6: the same shared-blob workload at
// the configured pipeline depth (batched: the flusher commits
// half-window runs, one ticket and one publish round trip per run) and
// at depth 2 (unbatched: one block, one version, per commit). Both arms
// take the same publish path; the ablated quantity is how many
// versions share a round trip. It errors if the batched arm publishes
// slower — the sim-level assertion that batching never loses.
func RunPublishAblation(opts PublishOpts) (batched, unbatched PublishResult, err error) {
	batched, err = RunPublish(opts)
	batched.Point.Experiment = "X2-publish-shared"
	if err != nil {
		return batched, unbatched, err
	}
	opts.Storage.MaxInFlightBlocks = 2
	unbatched, err = RunPublish(opts)
	unbatched.Point.Experiment = "A6-unbatched-publish"
	if err != nil {
		return batched, unbatched, err
	}
	// Allow sub-percent scheduling jitter; anything beyond means the
	// batch path genuinely regressed.
	if batched.VersionsPerSec < unbatched.VersionsPerSec*0.99 {
		err = fmt.Errorf("bench: a6 batched publish slower than unbatched: %.1f vs %.1f versions/s",
			batched.VersionsPerSec, unbatched.VersionsPerSec)
	}
	return batched, unbatched, err
}

// RunShardAblation is ablation A7: the same multi-blob workload with
// the version-manager tier sharded (VMShards, at least 2; 4 when
// unset) and collapsed to one shard. It errors if the sharded tier
// publishes slower than the centralized baseline — the sim-level
// assertion that partitioning never loses.
func RunShardAblation(opts PublishOpts) (sharded, single PublishResult, err error) {
	sh := opts
	if sh.Storage.VMShards < 2 {
		sh.Storage.VMShards = 4
	}
	sharded, err = RunPublish(sh)
	sharded.Point.Experiment = fmt.Sprintf("X5-shards-%d", sh.Storage.VMShards)
	if err != nil {
		return sharded, single, err
	}
	opts.Storage.VMShards = 1
	single, err = RunPublish(opts)
	single.Point.Experiment = "A7-single-shard"
	if err != nil {
		return sharded, single, err
	}
	// Allow sub-percent scheduling jitter; anything beyond means the
	// sharded tier genuinely regressed.
	if sharded.VersionsPerSec < single.VersionsPerSec*0.99 {
		err = fmt.Errorf("bench: a7 sharded tier slower than single shard: %.1f vs %.1f versions/s",
			sharded.VersionsPerSec, single.VersionsPerSec)
	}
	return sharded, single, err
}
