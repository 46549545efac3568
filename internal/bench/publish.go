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
//     block per commit).
//   - A7 runs X5 with the tier sharded and collapsed to one shard.
//
// Which arm wins is a claim over the results, checked by the claims
// table of this package's tests, not by the runs.

package bench

import (
	"fmt"

	"repro/internal/cluster"
)

// publishOpts parameterizes the publish workload. Block size, pipeline
// depth, shard count and shard service time are the Storage fields
// BlockSize, MaxInFlightBlocks, VMShards and VMServiceTime.
type publishOpts struct {
	// writers is the number of concurrent writers (default 1).
	writers int
	// files is the number of files the writers spread over, writer i
	// appending to file i % Files (default 1: one shared blob).
	files int
	// blocks is the number of versions each writer publishes (default
	// 64). The workload is sized in versions, not bytes: publish
	// throughput is the metric.
	blocks  int
	storage StorageOpts
	spec    ClusterSpec
}

func (o *publishOpts) fillDefaults() {
	if o.writers <= 0 {
		o.writers = 1
	}
	if o.files <= 0 {
		o.files = 1
	}
	if o.blocks <= 0 {
		o.blocks = 64
	}
	o.storage.Kind = "bsfs" // the workload exercises BlobSeer's version manager
	if o.storage.BlockSize <= 0 {
		// Small enough that version-manager round trips are a visible
		// share of each commit.
		o.storage.BlockSize = 1 * MB
	}
	if o.storage.maxInFlightBlocks <= 0 {
		o.storage.maxInFlightBlocks = 8
	}
}

// publishResult is the outcome of one publish run.
type publishResult struct {
	// point carries the usual per-writer data throughput summary; the
	// caller names it.
	point point
	// versions is the number of versions published (writers x blocks).
	versions int
	// versionsPerSec is the aggregate publish throughput over the
	// measured makespan.
	versionsPerSec float64
}

// runPublish runs the publish workload: Writers concurrent writers
// append Blocks blocks each, writer i to file i % Files; every block is
// one published version. The run fails if any file ends with a version
// count other than (writers on that file) x Blocks — no version may be
// lost or duplicated.
func runPublish(opts publishOpts) (publishResult, error) {
	opts.fillDefaults()
	tb, err := NewTestbed(opts.spec, opts.storage)
	if err != nil {
		return publishResult{}, err
	}
	path := func(f int) string { return fmt.Sprintf("/publish/f%04d", f) }
	blockSize := opts.storage.BlockSize
	var res publishResult
	var runErr error
	err = tb.Run(func() {
		// Create every file first, so the measured phase holds only the
		// append/publish traffic.
		fs := tb.bsfsSvc.NewFS(0)
		for f := 0; f < opts.files; f++ {
			if runErr = createEmpty(fs, path(f)); runErr != nil {
				return
			}
		}
		res.point, runErr = tb.phase("", int64(opts.blocks)*blockSize, tb.clientNodes(opts.writers), func(i int, c cluster.NodeID) error {
			return appendSynth(tb.NewFS(c), path(i%opts.files), opts.blocks, blockSize)
		})
		if runErr != nil {
			return
		}
		for f := 0; f < opts.files; f++ {
			vs, err := fs.Versions(path(f))
			if err != nil {
				runErr = err
				return
			}
			res.versions += len(vs)
			writers := opts.writers / opts.files
			if f < opts.writers%opts.files {
				writers++
			}
			if want := writers * opts.blocks; len(vs) != want {
				runErr = fmt.Errorf("bench: publish file %d has %d versions, want %d", f, len(vs), want)
				return
			}
		}
	})
	if err == nil {
		err = runErr
	}
	if d := res.point.duration; d > 0 {
		res.versionsPerSec = float64(res.versions) / d.Seconds()
	}
	return res, err
}

// runPublishAblation is ablation A6: the same shared-blob workload at
// the configured pipeline depth (batched: the flusher commits
// half-window runs, one ticket and one publish round trip per run) and
// at depth 2 (unbatched: one block, one version, per commit). Both arms
// take the same publish path; the ablated quantity is how many
// versions share a round trip.
func runPublishAblation(opts publishOpts) (batched, unbatched publishResult, err error) {
	batched, err = runPublish(opts)
	batched.point.experiment = "X2-publish-shared"
	if err != nil {
		return batched, unbatched, err
	}
	opts.storage.maxInFlightBlocks = 2
	unbatched, err = runPublish(opts)
	unbatched.point.experiment = "A6-unbatched-publish"
	return batched, unbatched, err
}

// runShardAblation is ablation A7: the same multi-blob workload with
// the version-manager tier sharded (VMShards, at least 2; 4 when
// unset) and collapsed to one shard.
func runShardAblation(opts publishOpts) (sharded, single publishResult, err error) {
	sh := opts
	if sh.storage.vmShards < 2 {
		sh.storage.vmShards = 4
	}
	sharded, err = runPublish(sh)
	sharded.point.experiment = fmt.Sprintf("X5-shards-%d", sh.storage.vmShards)
	if err != nil {
		return sharded, single, err
	}
	opts.storage.vmShards = 1
	single, err = runPublish(opts)
	single.point.experiment = "A7-single-shard"
	return sharded, single, err
}
