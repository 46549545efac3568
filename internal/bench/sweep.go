// sweep.go defines the named experiments (the Experiments registry) as
// parameter sweeps over both storage systems — the figures and
// tables of the paper's evaluation, regenerated, plus the extension
// and ablation studies this repository adds.

package bench

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"time"

	"repro/internal/fsapi"
)

// SweepOpts parameterizes a full experiment sweep.
type SweepOpts struct {
	// Clients lists the sweep points (default the paper's range
	// 1..250).
	Clients []int
	// BytesPerClient defaults to the paper's 1 GB.
	BytesPerClient int64
	// Spec defaults to the paper's 270 nodes.
	Spec ClusterSpec
	// MemCapacity scales storage-node caches (default 512 MB).
	MemCapacity int64
	// Replication is the data replica count for both systems
	// (default 1; 3 reproduces HDFS's default pipeline).
	Replication int
}

func (o *SweepOpts) fillDefaults() {
	if len(o.Clients) == 0 {
		o.Clients = []int{1, 20, 50, 100, 150, 200, 250}
	}
	if o.BytesPerClient <= 0 {
		o.BytesPerClient = 1 * GB
	}
}

// microRunner is one of the E1/E2/E3/X1 run functions.
type microRunner func(microOpts) (point, error)

// runSweep executes a microbenchmark over both storage kinds at every
// client count.
func runSweep(run microRunner, opts SweepOpts, kinds []string, mutate func(*microOpts)) ([]point, error) {
	opts.fillDefaults()
	var out []point
	for _, kind := range kinds {
		for _, n := range opts.Clients {
			mo := microOpts{
				clients:        n,
				bytesPerClient: opts.BytesPerClient,
				spec:           opts.Spec,
				storage: StorageOpts{
					Kind:        kind,
					memCapacity: opts.MemCapacity,
					replication: opts.Replication,
				},
			}
			if mutate != nil {
				mutate(&mo)
			}
			p, err := run(mo)
			if err != nil {
				return out, fmt.Errorf("bench: %s kind=%s n=%d: %w", p.experiment, kind, n, err)
			}
			out = append(out, p)
		}
	}
	return out, nil
}

// appOpts sizes an application benchmark from a sweep: one map per
// client at the sweep's largest client count, a client's volume per map.
func (o SweepOpts) appOpts(kind string) AppOpts {
	o.fillDefaults()
	return AppOpts{
		Maps:        slices.Max(o.Clients),
		BytesPerMap: o.BytesPerClient,
		Spec:        o.Spec,
		Storage:     StorageOpts{Kind: kind, memCapacity: o.MemCapacity, replication: o.Replication},
	}
}

// x2Opts sizes X2's publish workload from a sweep: n writers sharing
// one file, each publishing 64 versions of 1 MiB, small enough that
// version-manager round trips are a visible share of each commit.
func x2Opts(o SweepOpts, n int) publishOpts {
	return publishOpts{writers: n, files: 1, blocks: 64, spec: o.Spec,
		storage: StorageOpts{BlockSize: 1 * MB, memCapacity: o.MemCapacity, replication: o.Replication}}
}

// x5Opts sizes X5's: n writers with a file each, each publishing 16
// versions of 256 KiB (one page, so the workload stays metadata-bound),
// and every version-manager shard busy 400µs per RPC, so one
// centralized shard is the bottleneck.
func x5Opts(o SweepOpts, n int) publishOpts {
	return publishOpts{writers: n, files: n, blocks: 16, spec: o.Spec,
		storage: StorageOpts{BlockSize: 256 * KB, vmServiceTime: 400 * time.Microsecond,
			memCapacity: o.MemCapacity, replication: o.Replication}}
}

// runApp runs an application benchmark with BSFS, then HDFS, underneath.
func runApp(run func(AppOpts) (AppResult, error), opts SweepOpts) ([]AppResult, error) {
	var out []AppResult
	for _, kind := range []string{"bsfs", "hdfs"} {
		r, err := run(opts.appOpts(kind))
		if err != nil {
			return out, fmt.Errorf("bench: storage %s: %w", kind, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// Experiment metadata for the registry.
type Experiment struct {
	ID    string
	Title string
	run   func(opts SweepOpts, w io.Writer) error
}

// Experiments is the registry behind cmd/bsfs-bench: every figure and
// table of the paper plus the extension and ablation studies.
var Experiments = []Experiment{
	{
		ID:    "e1",
		Title: "E1 §IV.B: concurrent reads from different files (throughput vs clients)",
		run: func(opts SweepOpts, w io.Writer) error {
			pts, err := runSweep(runReadDistinct, opts, []string{"bsfs", "hdfs"}, nil)
			writePointsTable(w, "E1: concurrent reads, distinct files", pts)
			return err
		},
	},
	{
		ID:    "e2",
		Title: "E2 §IV.B: concurrent reads of disjoint parts of one huge file",
		run: func(opts SweepOpts, w io.Writer) error {
			pts, err := runSweep(runReadShared, opts, []string{"bsfs", "hdfs"}, nil)
			writePointsTable(w, "E2: concurrent reads, one shared file", pts)
			return err
		},
	},
	{
		ID:    "e3",
		Title: "E3 §IV.B: concurrent writes to different files",
		run: func(opts SweepOpts, w io.Writer) error {
			pts, err := runSweep(runWriteDistinct, opts, []string{"bsfs", "hdfs"}, nil)
			writePointsTable(w, "E3: concurrent writes, distinct files", pts)
			return err
		},
	},
	{
		ID:    "e4",
		Title: "E4 §IV.C: Random Text Writer through MapReduce (job completion time)",
		run: func(opts SweepOpts, w io.Writer) error {
			res, err := runApp(runRandomTextWriter, opts)
			writeAppTable(w, "E4: Random Text Writer (job completion time)", res)
			return err
		},
	},
	{
		ID:    "e5",
		Title: "E5 §IV.C: Distributed Grep through MapReduce (job completion time)",
		run: func(opts SweepOpts, w io.Writer) error {
			res, err := runApp(RunDistributedGrep, opts)
			writeAppTable(w, "E5: Distributed Grep (job completion time)", res)
			return err
		},
	},
	{
		ID:    "x1",
		Title: "X1 §V: concurrent appends to one file (BSFS only; HDFS rejects)",
		run: func(opts SweepOpts, w io.Writer) error {
			pts, err := runSweep(runAppendShared, opts, []string{"bsfs"}, nil)
			writePointsTable(w, "X1: concurrent appends, one shared file (bsfs)", pts)
			if err != nil {
				return err
			}
			// Demonstrate the HDFS refusal at one point.
			opts.fillDefaults()
			_, herr := runAppendShared(microOpts{
				clients:        opts.Clients[0],
				bytesPerClient: opts.BytesPerClient,
				spec:           opts.Spec,
				storage:        StorageOpts{Kind: "hdfs", memCapacity: opts.MemCapacity},
			})
			if !errors.Is(herr, fsapi.ErrNotSupported) {
				return fmt.Errorf("bench: x1 hdfs concurrent append: got %v, want %v", herr, fsapi.ErrNotSupported)
			}
			fmt.Fprintf(w, "hdfs: concurrent append rejected as expected: %v\n", herr)
			return nil
		},
	},
	{
		ID:    "x2",
		Title: "X2: concurrent writers to one blob (publish throughput vs N writers, bsfs)",
		run: func(opts SweepOpts, w io.Writer) error {
			opts.fillDefaults()
			var pts []point
			for _, n := range opts.Clients {
				res, err := runPublish(x2Opts(opts, n))
				if err != nil {
					return fmt.Errorf("bench: x2 n=%d: %w", n, err)
				}
				res.point.experiment = "X2-publish-shared"
				fmt.Fprintf(w, "x2 n=%d: %d versions published, %.1f versions/s\n",
					n, res.versions, res.versionsPerSec)
				recordMetric(w, fmt.Sprintf("publish_rate_n%d", n), "versions/s", res.versionsPerSec)
				pts = append(pts, res.point)
			}
			writePointsTable(w, "X2: shared-blob publish throughput (batched ticket/publish)", pts)
			return nil
		},
	},
	{
		ID:    "x3",
		Title: "X3: provider failure and churn (degraded reads + time-to-full-replication, bsfs)",
		run: func(opts SweepOpts, w io.Writer) error {
			opts.fillDefaults()
			var pts []point
			for _, n := range opts.Clients {
				// FaultOpts.fillDefaults forces bsfs and Replication >= 2.
				res, err := runFaultChurn(faultOpts{
					clients:        n,
					bytesPerClient: opts.BytesPerClient,
					spec:           opts.Spec,
					storage:        StorageOpts{memCapacity: opts.MemCapacity, replication: opts.Replication},
				})
				if err != nil {
					return fmt.Errorf("bench: x3 n=%d: %w", n, err)
				}
				pts = append(pts, res.healthy, res.degraded)
				fmt.Fprintf(w, "x3 n=%d: repaired %d/%d degraded pages (%d replicas, %s copied) in %s\n",
					n, res.repair.PagesDegraded, res.repair.PagesScanned,
					res.repair.ReplicasAdded, size(res.repair.BytesCopied),
					res.repairDuration.Round(timeUnit(res.repairDuration)))
				recordMetric(w, fmt.Sprintf("pages_repaired_n%d", n), "pages", float64(res.repair.PagesDegraded))
				recordMetric(w, fmt.Sprintf("repair_duration_n%d", n), "s", res.repairDuration.Seconds())
			}
			writePointsTable(w, "X3: reads under provider failure (healthy vs degraded)", pts)
			return nil
		},
	},
	{
		ID:    "x4",
		Title: "X4 §V: concurrent MapReduce jobs on different snapshots of a growing file (bsfs)",
		run: func(opts SweepOpts, w io.Writer) error {
			res, err := runSnapshotWorkflow(opts.appOpts("bsfs"))
			writeAppTable(w, "X4: concurrent MapReduce jobs on different snapshots (bsfs)", res)
			return err
		},
	},
	{
		ID:    "x5",
		Title: "X5: sharded version manager (aggregate multi-blob publish throughput vs shard count)",
		run: func(opts SweepOpts, w io.Writer) error {
			opts.fillDefaults()
			// The sweep axis is the shard count, not the client count:
			// a fixed multi-blob writer fleet drives the tier at every
			// shard width.
			var pts []point
			for _, sh := range []int{1, 2, 4, 8} {
				po := x5Opts(opts, 32)
				po.storage.vmShards = sh
				res, err := runPublish(po)
				if err != nil {
					return fmt.Errorf("bench: x5 shards=%d: %w", sh, err)
				}
				res.point.experiment = fmt.Sprintf("X5-shards-%d", sh)
				fmt.Fprintf(w, "x5 shards=%d: %d versions published, %.1f versions/s\n",
					sh, res.versions, res.versionsPerSec)
				recordMetric(w, fmt.Sprintf("publish_rate_shards%d", sh), "versions/s", res.versionsPerSec)
				pts = append(pts, res.point)
			}
			writePointsTable(w, "X5: multi-blob publish throughput vs version-manager shards", pts)
			return nil
		},
	},
	{
		ID:    "x6",
		Title: "X6: membership churn (writers survive join/leave cycles, time-to-rebalance, bsfs)",
		run: func(opts SweepOpts, w io.Writer) error {
			res, err := runChurn(opts.Replication)
			if err != nil {
				return fmt.Errorf("bench: x6: %w", err)
			}
			fmt.Fprintf(w, "x6: %d appends (%d retried) across %d churn cycles, final epoch %d\n",
				res.appends, res.retries, x6Cycles, res.epoch)
			fmt.Fprintf(w, "x6: placement moved %d replicas / migrated %d pages (%s copied); rebalanced to preferred owners in %s\n",
				res.sweeps.ReplicasAdded, res.sweeps.PagesMigrated, size(res.sweeps.BytesCopied),
				res.rebalanceDuration.Round(timeUnit(res.rebalanceDuration)))
			recordMetric(w, "appends", "ops", float64(res.appends))
			recordMetric(w, "append_retries", "ops", float64(res.retries))
			recordMetric(w, "final_epoch", "epoch", float64(res.epoch))
			recordMetric(w, "replicas_added", "pages", float64(res.sweeps.ReplicasAdded))
			recordMetric(w, "pages_migrated", "pages", float64(res.sweeps.PagesMigrated))
			recordMetric(w, "rebalance_duration", "s", res.rebalanceDuration.Seconds())
			return nil
		},
	},
	{
		ID:    "x7",
		Title: "X7: tiered storage recovery (cold vs warm reads, restart recovery time vs store size)",
		run: func(opts SweepOpts, w io.Writer) error {
			// The sweep axis is the store size: the dataset the provider
			// fleet must recover after a restart.
			var all []point
			for _, mb := range []int64{64, 256, 1024} {
				res, err := runTieredRecovery(mb*MB, StorageOpts{memCapacity: opts.MemCapacity, replication: opts.Replication})
				if err != nil {
					return fmt.Errorf("bench: x7 size=%dMB: %w", mb, err)
				}
				fmt.Fprintf(w, "x7 size=%dMB: %d pages recovered in %s wall / %s sim (%s of logs); cold %.1f MB/s, warm %.1f MB/s (%.1fx)\n",
					mb, res.recoveredPages,
					res.recoveryWall.Round(timeUnit(res.recoveryWall)),
					res.recoverySim.Round(timeUnit(res.recoverySim)),
					size(res.logBytes),
					res.cold.aggregateMBps, res.warm.aggregateMBps,
					res.warm.aggregateMBps/res.cold.aggregateMBps)
				recordMetric(w, fmt.Sprintf("recovered_pages_%dmb", mb), "pages", float64(res.recoveredPages))
				recordMetric(w, fmt.Sprintf("recovery_sim_%dmb", mb), "s", res.recoverySim.Seconds())
				recordMetric(w, fmt.Sprintf("cold_read_%dmb", mb), "MB/s", res.cold.aggregateMBps)
				recordMetric(w, fmt.Sprintf("warm_read_%dmb", mb), "MB/s", res.warm.aggregateMBps)
				res.cold.experiment = fmt.Sprintf("X7-cold-%dMB", mb)
				res.warm.experiment = fmt.Sprintf("X7-warm-%dMB", mb)
				all = append(all, res.cold, res.warm)
			}
			writePointsTable(w, "X7: tiered recovery (cold vs warm reads by store size)", all)
			return nil
		},
	},
	{
		ID:    "x8",
		Title: "X8: heavy-traffic serving (open-loop multi-tenant load; admission on/off at 1x/5x/10x)",
		run: func(opts SweepOpts, w io.Writer) error {
			multiples := []float64{1, 5, 10}
			open, admitted, err := runServeSweep(multiples)
			// Render whatever completed before reporting the error.
			var pts []point
			for i := range open {
				m := multiples[i]
				o, a := open[i], admitted[i]
				fmt.Fprintf(w, "x8 %2.0fx open : offered %d completed %d goodput %.0f ops/s p50 %s p99 %s inflight<=%d\n",
					m, o.report.Offered, o.report.Completed, o.goodputPerSec,
					o.report.P50.Round(time.Microsecond), o.report.P99.Round(time.Microsecond), o.report.MaxInflight)
				fmt.Fprintf(w, "x8 %2.0fx admit: offered %d completed %d rejected %d goodput %.0f ops/s p50 %s p99 %s inflight<=%d\n",
					m, a.report.Offered, a.report.Completed, a.report.Rejected, a.goodputPerSec,
					a.report.P50.Round(time.Microsecond), a.report.P99.Round(time.Microsecond), a.report.MaxInflight)
				recordMetric(w, fmt.Sprintf("goodput_open_%gx", m), "ops/s", o.goodputPerSec)
				recordMetric(w, fmt.Sprintf("goodput_admit_%gx", m), "ops/s", a.goodputPerSec)
				recordMetric(w, fmt.Sprintf("p99_open_%gx", m), "ms", ms(o.report.P99))
				recordMetric(w, fmt.Sprintf("p99_admit_%gx", m), "ms", ms(a.report.P99))
				recordMetric(w, fmt.Sprintf("rejected_admit_%gx", m), "ops", float64(a.report.Rejected))
				recordMetric(w, fmt.Sprintf("max_inflight_open_%gx", m), "ops", float64(o.report.MaxInflight))
				recordMetric(w, fmt.Sprintf("max_inflight_admit_%gx", m), "ops", float64(a.report.MaxInflight))
				pts = append(pts, o.point, a.point)
			}
			recordPoints(w, pts)
			return err
		},
	},
	{
		ID:    "a1",
		Title: "A1 ablation: BlobSeer striping vs HDFS-style local-first placement (read side)",
		run: func(opts SweepOpts, w io.Writer) error {
			striped, err := runSweep(runReadDistinct, opts, []string{"bsfs"}, nil)
			if err != nil {
				return err
			}
			local, err := runSweep(runReadDistinct, opts, []string{"bsfs"}, func(m *microOpts) {
				m.storage.localFirstPlacement = true
			})
			for i := range local {
				local[i].experiment = "A1-local-first"
			}
			writePointsTable(w, "A1: placement ablation (striped vs local-first, reads)", append(striped, local...))
			return err
		},
	},
	{
		ID:    "a2",
		Title: "A2 ablation: BSFS client block cache disabled",
		run: func(opts SweepOpts, w io.Writer) error {
			// MapReduce-style record reads (1 MB requests) are where the
			// §III.B client cache earns its keep.
			withRecords := func(m *microOpts) { m.recordSize = 1 * MB }
			on, err := runSweep(runReadDistinct, opts, []string{"bsfs"}, withRecords)
			if err != nil {
				return err
			}
			off, err := runSweep(runReadDistinct, opts, []string{"bsfs"}, func(m *microOpts) {
				m.recordSize = 1 * MB
				m.storage.noClientCache = true
			})
			for i := range off {
				off[i].experiment = "A2-no-client-cache"
			}
			writePointsTable(w, "A2: client cache ablation (1 MB record reads)", append(on, off...))
			return err
		},
	},
	{
		ID:    "a3",
		Title: "A3 ablation: BlobSeer page size sweep (shared-file reads)",
		run: func(opts SweepOpts, w io.Writer) error {
			var all []point
			for _, ps := range []int64{64 * KB, 256 * KB, 1 * MB, 4 * MB} {
				pts, err := runSweep(runReadShared, opts, []string{"bsfs"}, func(m *microOpts) {
					m.storage.pageSize = ps
				})
				if err != nil {
					return err
				}
				for i := range pts {
					pts[i].experiment = fmt.Sprintf("A3-page-%s", size(ps))
				}
				all = append(all, pts...)
			}
			writePointsTable(w, "A3: page size ablation (shared-file reads)", all)
			return nil
		},
	},
	{
		ID:    "a4",
		Title: "A4 ablation: HDFS with RAM-buffered datanodes (write-through off)",
		run: func(opts SweepOpts, w io.Writer) error {
			wt, err := runSweep(runWriteDistinct, opts, []string{"hdfs"}, nil)
			if err != nil {
				return err
			}
			ram, err := runSweep(runWriteDistinct, opts, []string{"hdfs"}, func(m *microOpts) {
				m.storage.ramDatanodes = true
			})
			for i := range ram {
				ram[i].experiment = "A4-ram-datanodes"
			}
			writePointsTable(w, "A4: HDFS write-through ablation (writes)", append(wt, ram...))
			return err
		},
	},
	{
		ID:    "a6",
		Title: "A6 ablation: writer pipeline depth 8 vs 2 blocks per commit (shared-blob publish)",
		run: func(opts SweepOpts, w io.Writer) error {
			opts.fillDefaults()
			var all []point
			for _, n := range opts.Clients {
				batched, unbatched, err := runPublishAblation(x2Opts(opts, n))
				if err != nil {
					return fmt.Errorf("bench: a6 n=%d: %w", n, err)
				}
				fmt.Fprintf(w, "a6 n=%d: batched %.1f versions/s, unbatched (depth 2) %.1f versions/s (%.2fx)\n",
					n, batched.versionsPerSec, unbatched.versionsPerSec,
					batched.versionsPerSec/unbatched.versionsPerSec)
				recordMetric(w, fmt.Sprintf("group_commit_speedup_n%d", n), "x", batched.versionsPerSec/unbatched.versionsPerSec)
				all = append(all, batched.point, unbatched.point)
			}
			writePointsTable(w, "A6: pipeline-depth ablation (shared-blob publish)", all)
			return nil
		},
	},
	{
		ID:    "a7",
		Title: "A7 ablation: version-manager tier sharded vs centralized (multi-blob publish)",
		run: func(opts SweepOpts, w io.Writer) error {
			opts.fillDefaults()
			var all []point
			for _, writers := range []int{8, 32, 64} {
				sharded, single, err := runShardAblation(x5Opts(opts, writers))
				if err != nil {
					return fmt.Errorf("bench: a7 writers=%d: %w", writers, err)
				}
				fmt.Fprintf(w, "a7 writers=%d: sharded %.1f versions/s, single %.1f versions/s (%.2fx)\n",
					writers, sharded.versionsPerSec, single.versionsPerSec,
					sharded.versionsPerSec/single.versionsPerSec)
				recordMetric(w, fmt.Sprintf("sharding_speedup_w%d", writers), "x", sharded.versionsPerSec/single.versionsPerSec)
				all = append(all, sharded.point, single.point)
			}
			writePointsTable(w, "A7: sharding ablation (multi-blob publish)", all)
			return nil
		},
	},
}

// FindExperiment returns the registered experiment with the given id.
func FindExperiment(id string) (Experiment, bool) {
	for _, e := range Experiments {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
