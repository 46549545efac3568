// sweep.go defines the named experiments (the Experiments registry) as
// parameter sweeps over both storage systems — the figures and
// tables of the paper's evaluation, regenerated, plus the extension
// and ablation studies this repository adds.

package bench

import (
	"fmt"
	"io"
	"slices"
	"time"
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
type microRunner func(MicroOpts) (Point, error)

// runSweep executes a microbenchmark over both storage kinds at every
// client count.
func runSweep(run microRunner, opts SweepOpts, kinds []string, mutate func(*MicroOpts)) ([]Point, error) {
	opts.fillDefaults()
	var out []Point
	for _, kind := range kinds {
		for _, n := range opts.Clients {
			mo := MicroOpts{
				Clients:        n,
				BytesPerClient: opts.BytesPerClient,
				Spec:           opts.Spec,
				Storage: StorageOpts{
					Kind:        kind,
					MemCapacity: opts.MemCapacity,
					Replication: opts.Replication,
				},
			}
			if mutate != nil {
				mutate(&mo)
			}
			p, err := run(mo)
			if err != nil {
				return out, fmt.Errorf("bench: %s kind=%s n=%d: %w", p.Experiment, kind, n, err)
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
		Storage:     StorageOpts{Kind: kind, MemCapacity: o.MemCapacity, Replication: o.Replication},
	}
}

// x2Opts sizes X2's publish workload from a sweep: n writers sharing
// one file, each publishing 64 versions of 1 MiB.
func x2Opts(o SweepOpts, n int) PublishOpts {
	return PublishOpts{Writers: n, Files: 1, Blocks: 64, Spec: o.Spec,
		Storage: StorageOpts{BlockSize: 1 * MB, MemCapacity: o.MemCapacity, Replication: o.Replication}}
}

// x5Opts sizes X5's: n writers with a file each, each publishing 16
// versions of 256 KiB (one page, so the workload stays metadata-bound),
// and every version-manager shard busy 400µs per RPC, so one
// centralized shard is the bottleneck.
func x5Opts(o SweepOpts, n int) PublishOpts {
	return PublishOpts{Writers: n, Files: n, Blocks: 16, Spec: o.Spec,
		Storage: StorageOpts{BlockSize: 256 * KB, VMServiceTime: 400 * time.Microsecond,
			MemCapacity: o.MemCapacity, Replication: o.Replication}}
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
	Run   func(opts SweepOpts, w io.Writer) error
}

// Experiments is the registry behind cmd/bsfs-bench: every figure and
// table of the paper plus the extension and ablation studies.
var Experiments = []Experiment{
	{
		ID:    "e1",
		Title: "E1 §IV.B: concurrent reads from different files (throughput vs clients)",
		Run: func(opts SweepOpts, w io.Writer) error {
			pts, err := runSweep(RunReadDistinct, opts, []string{"bsfs", "hdfs"}, nil)
			WritePointsTable(w, "E1: concurrent reads, distinct files", pts)
			return err
		},
	},
	{
		ID:    "e2",
		Title: "E2 §IV.B: concurrent reads of disjoint parts of one huge file",
		Run: func(opts SweepOpts, w io.Writer) error {
			pts, err := runSweep(RunReadShared, opts, []string{"bsfs", "hdfs"}, nil)
			WritePointsTable(w, "E2: concurrent reads, one shared file", pts)
			return err
		},
	},
	{
		ID:    "e3",
		Title: "E3 §IV.B: concurrent writes to different files",
		Run: func(opts SweepOpts, w io.Writer) error {
			pts, err := runSweep(RunWriteDistinct, opts, []string{"bsfs", "hdfs"}, nil)
			WritePointsTable(w, "E3: concurrent writes, distinct files", pts)
			return err
		},
	},
	{
		ID:    "e4",
		Title: "E4 §IV.C: Random Text Writer through MapReduce (job completion time)",
		Run: func(opts SweepOpts, w io.Writer) error {
			res, err := runApp(RunRandomTextWriter, opts)
			WriteAppTable(w, "E4: Random Text Writer (job completion time)", res)
			return err
		},
	},
	{
		ID:    "e5",
		Title: "E5 §IV.C: Distributed Grep through MapReduce (job completion time)",
		Run: func(opts SweepOpts, w io.Writer) error {
			res, err := runApp(RunDistributedGrep, opts)
			WriteAppTable(w, "E5: Distributed Grep (job completion time)", res)
			return err
		},
	},
	{
		ID:    "x1",
		Title: "X1 §V: concurrent appends to one file (BSFS only; HDFS rejects)",
		Run: func(opts SweepOpts, w io.Writer) error {
			pts, err := runSweep(RunAppendShared, opts, []string{"bsfs"}, nil)
			WritePointsTable(w, "X1: concurrent appends, one shared file (bsfs)", pts)
			if err != nil {
				return err
			}
			// Demonstrate the HDFS refusal at one point.
			opts.fillDefaults()
			_, herr := RunAppendShared(MicroOpts{
				Clients:        opts.Clients[0],
				BytesPerClient: opts.BytesPerClient,
				Spec:           opts.Spec,
				Storage:        StorageOpts{Kind: "hdfs", MemCapacity: opts.MemCapacity},
			})
			fmt.Fprintf(w, "hdfs: concurrent append rejected as expected: %v\n", herr)
			return nil
		},
	},
	{
		ID:    "x2",
		Title: "X2: concurrent writers to one blob (publish throughput vs N writers, bsfs)",
		Run: func(opts SweepOpts, w io.Writer) error {
			opts.fillDefaults()
			var pts []Point
			for _, n := range opts.Clients {
				res, err := RunPublish(x2Opts(opts, n))
				if err != nil {
					return fmt.Errorf("bench: x2 n=%d: %w", n, err)
				}
				res.Point.Experiment = "X2-publish-shared"
				fmt.Fprintf(w, "x2 n=%d: %d versions published, %.1f versions/s\n",
					n, res.Versions, res.VersionsPerSec)
				recordMetric(w, fmt.Sprintf("publish_rate_n%d", n), "versions/s", res.VersionsPerSec)
				pts = append(pts, res.Point)
			}
			WritePointsTable(w, "X2: shared-blob publish throughput (batched ticket/publish)", pts)
			return nil
		},
	},
	{
		ID:    "x3",
		Title: "X3: provider failure and churn (degraded reads + time-to-full-replication, bsfs)",
		Run: func(opts SweepOpts, w io.Writer) error {
			opts.fillDefaults()
			var pts []Point
			for _, n := range opts.Clients {
				// FaultOpts.fillDefaults forces bsfs and Replication >= 2.
				res, err := RunFaultChurn(FaultOpts{
					Clients:        n,
					BytesPerClient: opts.BytesPerClient,
					Spec:           opts.Spec,
					Storage:        StorageOpts{MemCapacity: opts.MemCapacity, Replication: opts.Replication},
				})
				if err != nil {
					return fmt.Errorf("bench: x3 n=%d: %w", n, err)
				}
				pts = append(pts, res.Healthy, res.Degraded)
				fmt.Fprintf(w, "x3 n=%d: repaired %d/%d degraded pages (%d replicas, %s copied) in %s\n",
					n, res.Repair.PagesDegraded, res.Repair.PagesScanned,
					res.Repair.ReplicasAdded, size(res.Repair.BytesCopied),
					res.RepairDuration.Round(timeUnit(res.RepairDuration)))
				recordMetric(w, fmt.Sprintf("pages_repaired_n%d", n), "pages", float64(res.Repair.PagesDegraded))
				recordMetric(w, fmt.Sprintf("repair_duration_n%d", n), "s", res.RepairDuration.Seconds())
			}
			WritePointsTable(w, "X3: reads under provider failure (healthy vs degraded)", pts)
			return nil
		},
	},
	{
		ID:    "x4",
		Title: "X4 §V: concurrent MapReduce jobs on different snapshots of a growing file (bsfs)",
		Run: func(opts SweepOpts, w io.Writer) error {
			res, err := RunSnapshotWorkflow(opts.appOpts("bsfs"))
			WriteAppTable(w, "X4: concurrent MapReduce jobs on different snapshots (bsfs)", res)
			return err
		},
	},
	{
		ID:    "x5",
		Title: "X5: sharded version manager (aggregate multi-blob publish throughput vs shard count)",
		Run: func(opts SweepOpts, w io.Writer) error {
			opts.fillDefaults()
			// The sweep axis is the shard count, not the client count:
			// a fixed multi-blob writer fleet drives the tier at every
			// shard width. The run itself asserts the tentpole claim —
			// 4 shards must out-publish the centralized baseline.
			var pts []Point
			var one, four float64
			for _, sh := range []int{1, 2, 4, 8} {
				po := x5Opts(opts, 32)
				po.Storage.VMShards = sh
				res, err := RunPublish(po)
				if err != nil {
					return fmt.Errorf("bench: x5 shards=%d: %w", sh, err)
				}
				res.Point.Experiment = fmt.Sprintf("X5-shards-%d", sh)
				fmt.Fprintf(w, "x5 shards=%d: %d versions published, %.1f versions/s\n",
					sh, res.Versions, res.VersionsPerSec)
				recordMetric(w, fmt.Sprintf("publish_rate_shards%d", sh), "versions/s", res.VersionsPerSec)
				switch sh {
				case 1:
					one = res.VersionsPerSec
				case 4:
					four = res.VersionsPerSec
				}
				pts = append(pts, res.Point)
			}
			if four <= one {
				return fmt.Errorf("bench: x5 sharding did not scale: 4 shards %.1f <= 1 shard %.1f versions/s", four, one)
			}
			WritePointsTable(w, "X5: multi-blob publish throughput vs version-manager shards", pts)
			return nil
		},
	},
	{
		ID:    "x6",
		Title: "X6: membership churn (writers survive join/leave cycles, time-to-rebalance, bsfs)",
		Run: func(opts SweepOpts, w io.Writer) error {
			opts.fillDefaults()
			res, err := RunChurn(ChurnOpts{Replication: opts.Replication})
			if err != nil {
				return fmt.Errorf("bench: x6: %w", err)
			}
			fmt.Fprintf(w, "x6: %d appends (%d retried) across %d churn cycles, final epoch %d\n",
				res.Appends, res.Retries, res.Cycles, res.Epoch)
			fmt.Fprintf(w, "x6: placement moved %d replicas / migrated %d pages (%s copied); rebalanced to preferred owners in %s\n",
				res.Sweeps.ReplicasAdded, res.Sweeps.PagesMigrated, size(res.Sweeps.BytesCopied),
				res.RebalanceDuration.Round(timeUnit(res.RebalanceDuration)))
			recordMetric(w, "appends", "ops", float64(res.Appends))
			recordMetric(w, "append_retries", "ops", float64(res.Retries))
			recordMetric(w, "final_epoch", "epoch", float64(res.Epoch))
			recordMetric(w, "replicas_added", "pages", float64(res.Sweeps.ReplicasAdded))
			recordMetric(w, "pages_migrated", "pages", float64(res.Sweeps.PagesMigrated))
			recordMetric(w, "rebalance_duration", "s", res.RebalanceDuration.Seconds())
			return nil
		},
	},
	{
		ID:    "x7",
		Title: "X7: tiered storage recovery (cold vs warm reads, restart recovery time vs store size)",
		Run: func(opts SweepOpts, w io.Writer) error {
			// The sweep axis is the store size: the dataset the provider
			// fleet must recover after a restart.
			var all []Point
			for _, mb := range []int64{64, 256, 1024} {
				res, err := RunTieredRecovery(TieredOpts{
					BytesPerClient: mb * MB,
					Storage:        StorageOpts{MemCapacity: opts.MemCapacity, Replication: opts.Replication},
				})
				if err != nil {
					return fmt.Errorf("bench: x7 size=%dMB: %w", mb, err)
				}
				fmt.Fprintf(w, "x7 size=%dMB: %d pages recovered in %s wall / %s sim (%s of logs); cold %.1f MB/s, warm %.1f MB/s (%.1fx)\n",
					mb, res.RecoveredPages,
					res.RecoveryWall.Round(timeUnit(res.RecoveryWall)),
					res.RecoverySim.Round(timeUnit(res.RecoverySim)),
					size(res.LogBytes),
					res.Cold.AggregateMBps, res.Warm.AggregateMBps,
					res.Warm.AggregateMBps/res.Cold.AggregateMBps)
				recordMetric(w, fmt.Sprintf("recovered_pages_%dmb", mb), "pages", float64(res.RecoveredPages))
				recordMetric(w, fmt.Sprintf("recovery_wall_%dmb", mb), "ms", float64(res.RecoveryWall.Milliseconds()))
				recordMetric(w, fmt.Sprintf("recovery_sim_%dmb", mb), "s", res.RecoverySim.Seconds())
				recordMetric(w, fmt.Sprintf("cold_read_%dmb", mb), "MB/s", res.Cold.AggregateMBps)
				recordMetric(w, fmt.Sprintf("warm_read_%dmb", mb), "MB/s", res.Warm.AggregateMBps)
				res.Cold.Experiment = fmt.Sprintf("X7-cold-%dMB", mb)
				res.Warm.Experiment = fmt.Sprintf("X7-warm-%dMB", mb)
				all = append(all, res.Cold, res.Warm)
			}
			WritePointsTable(w, "X7: tiered recovery (cold vs warm reads by store size)", all)
			return nil
		},
	},
	{
		ID:    "x8",
		Title: "X8: heavy-traffic serving (open-loop multi-tenant load; admission on/off at 1x/5x/10x)",
		Run: func(opts SweepOpts, w io.Writer) error {
			multiples := []float64{1, 5, 10}
			open, admitted, err := RunServeSweep(ServeOpts{}, multiples)
			// The sweep itself asserts graceful degradation (admission
			// goodput >= open at 10x, admitted p99 within the SLO);
			// render whatever completed before reporting the error.
			var pts []Point
			for i := range open {
				m := multiples[i]
				o, a := open[i], admitted[i]
				fmt.Fprintf(w, "x8 %2.0fx open : offered %d completed %d goodput %.0f ops/s p50 %s p99 %s inflight<=%d\n",
					m, o.Report.Offered, o.Report.Completed, o.GoodputPerSec,
					o.Report.P50.Round(time.Microsecond), o.Report.P99.Round(time.Microsecond), o.Report.MaxInflight)
				fmt.Fprintf(w, "x8 %2.0fx admit: offered %d completed %d rejected %d goodput %.0f ops/s p50 %s p99 %s inflight<=%d\n",
					m, a.Report.Offered, a.Report.Completed, a.Report.Rejected, a.GoodputPerSec,
					a.Report.P50.Round(time.Microsecond), a.Report.P99.Round(time.Microsecond), a.Report.MaxInflight)
				recordMetric(w, fmt.Sprintf("goodput_open_%gx", m), "ops/s", o.GoodputPerSec)
				recordMetric(w, fmt.Sprintf("goodput_admit_%gx", m), "ops/s", a.GoodputPerSec)
				recordMetric(w, fmt.Sprintf("p99_open_%gx", m), "ms", ms(o.Report.P99))
				recordMetric(w, fmt.Sprintf("p99_admit_%gx", m), "ms", ms(a.Report.P99))
				recordMetric(w, fmt.Sprintf("rejected_admit_%gx", m), "ops", float64(a.Report.Rejected))
				recordMetric(w, fmt.Sprintf("max_inflight_open_%gx", m), "ops", float64(o.Report.MaxInflight))
				recordMetric(w, fmt.Sprintf("max_inflight_admit_%gx", m), "ops", float64(a.Report.MaxInflight))
				pts = append(pts, o.Point, a.Point)
			}
			recordPoints(w, pts)
			return err
		},
	},
	{
		ID:    "a1",
		Title: "A1 ablation: BlobSeer striping vs HDFS-style local-first placement (read side)",
		Run: func(opts SweepOpts, w io.Writer) error {
			striped, err := runSweep(RunReadDistinct, opts, []string{"bsfs"}, nil)
			if err != nil {
				return err
			}
			local, err := runSweep(RunReadDistinct, opts, []string{"bsfs"}, func(m *MicroOpts) {
				m.Storage.LocalFirstPlacement = true
			})
			for i := range local {
				local[i].Experiment = "A1-local-first"
			}
			WritePointsTable(w, "A1: placement ablation (striped vs local-first, reads)", append(striped, local...))
			return err
		},
	},
	{
		ID:    "a2",
		Title: "A2 ablation: BSFS client block cache disabled",
		Run: func(opts SweepOpts, w io.Writer) error {
			// MapReduce-style record reads (1 MB requests) are where the
			// §III.B client cache earns its keep.
			withRecords := func(m *MicroOpts) { m.RecordSize = 1 * MB }
			on, err := runSweep(RunReadDistinct, opts, []string{"bsfs"}, withRecords)
			if err != nil {
				return err
			}
			off, err := runSweep(RunReadDistinct, opts, []string{"bsfs"}, func(m *MicroOpts) {
				m.RecordSize = 1 * MB
				m.Storage.DisableClientCache = true
			})
			for i := range off {
				off[i].Experiment = "A2-no-client-cache"
			}
			WritePointsTable(w, "A2: client cache ablation (1 MB record reads)", append(on, off...))
			return err
		},
	},
	{
		ID:    "a3",
		Title: "A3 ablation: BlobSeer page size sweep (shared-file reads)",
		Run: func(opts SweepOpts, w io.Writer) error {
			var all []Point
			for _, ps := range []int64{64 * KB, 256 * KB, 1 * MB, 4 * MB} {
				pts, err := runSweep(RunReadShared, opts, []string{"bsfs"}, func(m *MicroOpts) {
					m.Storage.PageSize = ps
				})
				if err != nil {
					return err
				}
				for i := range pts {
					pts[i].Experiment = fmt.Sprintf("A3-page-%s", size(ps))
				}
				all = append(all, pts...)
			}
			WritePointsTable(w, "A3: page size ablation (shared-file reads)", all)
			return nil
		},
	},
	{
		ID:    "a4",
		Title: "A4 ablation: HDFS with RAM-buffered datanodes (write-through off)",
		Run: func(opts SweepOpts, w io.Writer) error {
			wt, err := runSweep(RunWriteDistinct, opts, []string{"hdfs"}, nil)
			if err != nil {
				return err
			}
			ram, err := runSweep(RunWriteDistinct, opts, []string{"hdfs"}, func(m *MicroOpts) {
				m.Storage.RAMDatanodes = true
			})
			for i := range ram {
				ram[i].Experiment = "A4-ram-datanodes"
			}
			WritePointsTable(w, "A4: HDFS write-through ablation (writes)", append(wt, ram...))
			return err
		},
	},
	{
		ID:    "a6",
		Title: "A6 ablation: writer pipeline depth 8 vs 2 blocks per commit (shared-blob publish)",
		Run: func(opts SweepOpts, w io.Writer) error {
			opts.fillDefaults()
			var all []Point
			for _, n := range opts.Clients {
				batched, unbatched, err := RunPublishAblation(x2Opts(opts, n))
				if err != nil {
					// Includes the sim assertion: batched publish
					// throughput must not fall below unbatched.
					return fmt.Errorf("bench: a6 n=%d: %w", n, err)
				}
				fmt.Fprintf(w, "a6 n=%d: batched %.1f versions/s, unbatched (depth 2) %.1f versions/s (%.2fx)\n",
					n, batched.VersionsPerSec, unbatched.VersionsPerSec,
					batched.VersionsPerSec/unbatched.VersionsPerSec)
				recordMetric(w, fmt.Sprintf("group_commit_speedup_n%d", n), "x", batched.VersionsPerSec/unbatched.VersionsPerSec)
				all = append(all, batched.Point, unbatched.Point)
			}
			WritePointsTable(w, "A6: pipeline-depth ablation (shared-blob publish)", all)
			return nil
		},
	},
	{
		ID:    "a7",
		Title: "A7 ablation: version-manager tier sharded vs centralized (multi-blob publish)",
		Run: func(opts SweepOpts, w io.Writer) error {
			opts.fillDefaults()
			var all []Point
			for _, writers := range []int{8, 32, 64} {
				sharded, single, err := RunShardAblation(x5Opts(opts, writers))
				if err != nil {
					// Includes the sim assertion: the sharded tier must
					// not publish slower than the single-shard baseline.
					return fmt.Errorf("bench: a7 writers=%d: %w", writers, err)
				}
				fmt.Fprintf(w, "a7 writers=%d: sharded %.1f versions/s, single %.1f versions/s (%.2fx)\n",
					writers, sharded.VersionsPerSec, single.VersionsPerSec,
					sharded.VersionsPerSec/single.VersionsPerSec)
				recordMetric(w, fmt.Sprintf("sharding_speedup_w%d", writers), "x", sharded.VersionsPerSec/single.VersionsPerSec)
				all = append(all, sharded.Point, single.Point)
			}
			WritePointsTable(w, "A7: sharding ablation (multi-blob publish)", all)
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
