package bench

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/cluster"
)

// Reduced-scale versions of the paper's experiments: 60 nodes, 128 MB
// per client. The assertions check the paper's qualitative claims
// (who wins, and that BSFS sustains throughput under concurrency), not
// absolute numbers.

func newMicroOpts(kind string, clients int) microOpts {
	return microOpts{
		clients:        clients,
		bytesPerClient: 128 * MB,
		spec:           ClusterSpec{Nodes: 60, metaNodes: 8},
		// The node cache is scaled with the reduced per-client volume
		// (full-scale runs use 1 GB/client with 512 MB caches; reduced
		// runs keep the same cache:data ratio so re-reads hit disk the
		// same way).
		storage: StorageOpts{Kind: kind, memCapacity: 48 * MB},
	}
}

func TestE3WriteBSFSBeatsHDFS(t *testing.T) {
	b, err := runWriteDistinct(newMicroOpts("bsfs", 20))
	if err != nil {
		t.Fatal(err)
	}
	h, err := runWriteDistinct(newMicroOpts("hdfs", 20))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("E3 writes: bsfs %.1f MB/s vs hdfs %.1f MB/s per client", b.perClientMBps, h.perClientMBps)
	if b.perClientMBps <= h.perClientMBps {
		t.Fatalf("paper claim violated: BSFS writes (%.1f) not faster than HDFS (%.1f)", b.perClientMBps, h.perClientMBps)
	}
	// HDFS write-through pipelines are disk-bound (~60 MB/s modelled).
	if h.perClientMBps > 70 {
		t.Fatalf("HDFS write throughput %.1f exceeds disk-bound expectation", h.perClientMBps)
	}
}

func TestE1ReadDistinctShapes(t *testing.T) {
	b, err := runReadDistinct(newMicroOpts("bsfs", 20))
	if err != nil {
		t.Fatal(err)
	}
	h, err := runReadDistinct(newMicroOpts("hdfs", 20))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("E1 reads: bsfs %.1f MB/s vs hdfs %.1f MB/s per client", b.perClientMBps, h.perClientMBps)
	if b.perClientMBps <= h.perClientMBps {
		t.Fatalf("paper claim violated: BSFS reads (%.1f) not faster than HDFS (%.1f)", b.perClientMBps, h.perClientMBps)
	}
}

func TestE2ReadSharedShapes(t *testing.T) {
	b, err := runReadShared(newMicroOpts("bsfs", 16))
	if err != nil {
		t.Fatal(err)
	}
	h, err := runReadShared(newMicroOpts("hdfs", 16))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("E2 shared reads: bsfs %.1f MB/s vs hdfs %.1f MB/s per client", b.perClientMBps, h.perClientMBps)
	if b.perClientMBps <= h.perClientMBps {
		t.Fatalf("paper claim violated: BSFS shared reads (%.1f) not faster than HDFS (%.1f)", b.perClientMBps, h.perClientMBps)
	}
}

func TestBSFSSustainsUnderConcurrency(t *testing.T) {
	// The paper's headline: BSFS throughput holds as clients scale.
	lo, err := runWriteDistinct(newMicroOpts("bsfs", 4))
	if err != nil {
		t.Fatal(err)
	}
	hi, err := runWriteDistinct(newMicroOpts("bsfs", 40))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("bsfs writes: 4 clients %.1f MB/s, 40 clients %.1f MB/s", lo.perClientMBps, hi.perClientMBps)
	if hi.perClientMBps < lo.perClientMBps*0.5 {
		t.Fatalf("BSFS did not sustain throughput: %.1f -> %.1f MB/s", lo.perClientMBps, hi.perClientMBps)
	}
}

func TestX1AppendSharedWorksOnlyOnBSFS(t *testing.T) {
	p, err := runAppendShared(newMicroOpts("bsfs", 10))
	if err != nil {
		t.Fatal(err)
	}
	if p.perClientMBps <= 0 {
		t.Fatal("no append throughput measured")
	}
	if _, err := runAppendShared(newMicroOpts("hdfs", 10)); err == nil {
		t.Fatal("HDFS accepted concurrent appends; it must not (§II.C)")
	}
}

func TestE4RandomTextWriter(t *testing.T) {
	opts := AppOpts{Maps: 20, BytesPerMap: 128 * MB, Spec: ClusterSpec{Nodes: 60, metaNodes: 8}}
	opts.Storage = StorageOpts{Kind: "bsfs"}
	b, err := runRandomTextWriter(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Storage = StorageOpts{Kind: "hdfs"}
	h, err := runRandomTextWriter(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("E4 RTW completion: bsfs %s vs hdfs %s", b.Completion, h.Completion)
	if b.Completion >= h.Completion {
		t.Fatalf("paper claim violated: RTW on BSFS (%s) not faster than HDFS (%s)", b.Completion, h.Completion)
	}
	if b.Counters.OutputBytes != 20*128*MB {
		t.Fatalf("RTW output = %d bytes", b.Counters.OutputBytes)
	}
}

func TestE5DistributedGrep(t *testing.T) {
	opts := AppOpts{Maps: 20, BytesPerMap: 128 * MB, Spec: ClusterSpec{Nodes: 60, metaNodes: 8}}
	opts.Storage = StorageOpts{Kind: "bsfs", memCapacity: 48 * MB}
	b, err := RunDistributedGrep(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Storage = StorageOpts{Kind: "hdfs", memCapacity: 48 * MB}
	h, err := RunDistributedGrep(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("E5 grep completion: bsfs %s vs hdfs %s (hdfs locality %d/%d/%d)",
		b.Completion, h.Completion, h.Counters.DataLocal, h.Counters.RackLocal, h.Counters.Remote)
	if b.Completion >= h.Completion {
		t.Fatalf("paper claim violated: grep on BSFS (%s) not faster than HDFS (%s)", b.Completion, h.Completion)
	}
}

func TestX4SnapshotWorkflow(t *testing.T) {
	opts := AppOpts{Maps: 8, BytesPerMap: 64 * MB, Spec: ClusterSpec{Nodes: 40, metaNodes: 6}}
	opts.Storage = StorageOpts{Kind: "bsfs"}
	results, err := runSnapshotWorkflow(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("%d results, want 2", len(results))
	}
	// Results come in snapshot order. RunSnapshotWorkflow itself fails
	// unless the dataset ends at 2.5x the first snapshot's size: the
	// concurrent append landed whole.
	if results[0].experiment != "X4-snapshot-grep-1" {
		t.Fatalf("results[0] is %q, want X4-snapshot-grep-1", results[0].experiment)
	}
	// The snapshot-1 job reads half the data of the snapshot-2 job.
	var in1, in2 int64
	for _, r := range results {
		if r.experiment == "X4-snapshot-grep-1" {
			in1 = r.Counters.InputBytes
		} else {
			in2 = r.Counters.InputBytes
		}
	}
	if in1 <= 0 || in2 != 2*in1 {
		t.Fatalf("snapshot isolation broken: inputs %d vs %d (want 1:2)", in1, in2)
	}
}

func TestX3FaultChurn(t *testing.T) {
	res, err := runFaultChurn(faultOpts{
		clients:        12,
		bytesPerClient: 64 * MB,
		killProviders:  2,
		spec:           ClusterSpec{Nodes: 60, metaNodes: 8},
		storage:        StorageOpts{memCapacity: 48 * MB, replication: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("X3: healthy %.1f MB/s, degraded %.1f MB/s, repaired %d pages (%d replicas) in %s",
		res.healthy.perClientMBps, res.degraded.perClientMBps,
		res.repair.PagesDegraded, res.repair.ReplicasAdded, res.repairDuration)
	// RunFaultChurn itself verifies correctness (no short reads, full
	// replication after repair); here we assert the scenario's shape.
	if res.healthy.perClientMBps <= 0 || res.degraded.perClientMBps <= 0 {
		t.Fatal("no throughput measured")
	}
	if res.repair.PagesDegraded == 0 || res.repair.ReplicasAdded < res.repair.PagesDegraded {
		t.Fatalf("killing 2 of 59 providers must degrade pages and repair must re-copy them: %+v", res.repair)
	}
	if res.repairDuration <= 0 {
		t.Fatal("repair consumed no virtual time")
	}
}

func TestX6MembershipChurn(t *testing.T) {
	res, err := runChurn(churnOpts{
		writers:    3,
		providers:  8,
		cycles:     3,
		blockBytes: 2 * MB,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("X6: %d appends (%d retried), epoch %d, sweeps %+v, rebalanced in %s",
		res.appends, res.retries, res.epoch, res.sweeps, res.rebalanceDuration)
	// RunChurn itself asserts the hard properties (no append or read ever
	// loses all replicas, convergence to the preferred owners); here we
	// check the scenario's shape.
	if res.appends < res.cycles {
		t.Fatalf("writers published only %d blocks across %d churn cycles", res.appends, res.cycles)
	}
	// Each cycle is a death (epoch+1 via health), a removal and a join;
	// the epoch must have moved at least that much.
	if res.epoch < uint64(3*res.cycles) {
		t.Fatalf("epoch %d after %d churn cycles, want >= %d", res.epoch, res.cycles, 3*res.cycles)
	}
	if res.sweeps.ReplicasAdded == 0 {
		t.Fatalf("churn repaired no replicas: %+v", res.sweeps)
	}
	if res.sweeps.PagesMigrated == 0 {
		t.Fatalf("joins migrated no pages onto the new owners: %+v", res.sweeps)
	}
}

func TestA1PlacementAblation(t *testing.T) {
	// Grafting HDFS's local-first placement onto BlobSeer concentrates
	// each file on its writer's node; concurrent readers then hammer
	// single sources. Striping must read faster — evidence for the
	// paper's claim that the win comes from load-balanced placement.
	striped, err := runReadDistinct(newMicroOpts("bsfs", 20))
	if err != nil {
		t.Fatal(err)
	}
	o := newMicroOpts("bsfs", 20)
	o.storage.localFirstPlacement = true
	local, err := runReadDistinct(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("A1 reads: striped %.1f MB/s vs local-first %.1f MB/s", striped.perClientMBps, local.perClientMBps)
	if local.perClientMBps >= striped.perClientMBps {
		t.Fatalf("local-first placement (%.1f) should not beat striping (%.1f) for concurrent reads", local.perClientMBps, striped.perClientMBps)
	}
}

func TestX2PublishThroughputScalesWithWriters(t *testing.T) {
	// X2's acceptance bar: aggregate publish throughput (versions/s)
	// must grow — not stay flat — from 1 to 16 writers sharing one
	// blob, because the batched ticket/publish RPCs keep the version
	// manager off the critical path.
	run := func(n int) publishResult {
		t.Helper()
		opts := x2Opts(SweepOpts{Spec: ClusterSpec{Nodes: 34}}, n)
		opts.blocks = 32
		res, err := runPublish(opts)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		return res
	}
	one, sixteen := run(1), run(16)
	t.Logf("X2: 1 writer %.1f versions/s, 16 writers %.1f versions/s",
		one.versionsPerSec, sixteen.versionsPerSec)
	// "Not flat" with margin: 16 writers must publish at well over
	// double the single-writer rate (the probe shows ~15x).
	if sixteen.versionsPerSec < 2*one.versionsPerSec {
		t.Fatalf("publish throughput flat: 1 writer %.1f vs 16 writers %.1f versions/s",
			one.versionsPerSec, sixteen.versionsPerSec)
	}
}

func TestX5ShardedPublishScales(t *testing.T) {
	// X5's acceptance bar: with the version-manager tier the modeled
	// bottleneck (per-RPC service occupancy), aggregate multi-blob
	// publish throughput at 4 shards must be strictly greater than at
	// 1 shard — the tentpole claim that partitioning version
	// management scales publication past one node.
	run := func(shards int) publishResult {
		t.Helper()
		opts := x5Opts(SweepOpts{Spec: ClusterSpec{Nodes: 50, metaNodes: 8}}, 24)
		opts.storage.vmShards = shards
		res, err := runPublish(opts)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		return res
	}
	one, four := run(1), run(4)
	t.Logf("X5: 1 shard %.1f versions/s, 4 shards %.1f versions/s (%.2fx)",
		one.versionsPerSec, four.versionsPerSec, four.versionsPerSec/one.versionsPerSec)
	if four.versionsPerSec <= one.versionsPerSec {
		t.Fatalf("sharding did not scale publish throughput: 1 shard %.1f vs 4 shards %.1f versions/s",
			one.versionsPerSec, four.versionsPerSec)
	}
	if one.versions != four.versions {
		t.Fatalf("version counts diverged across shard widths: %d vs %d", one.versions, four.versions)
	}
}

func TestA7ShardedNotSlowerThanSingle(t *testing.T) {
	// A7's acceptance bar: the sharded tier is at least as fast as the
	// centralized baseline at every tested writer count.
	// RunShardAblation itself errors on a violation; the explicit
	// comparison here keeps the numbers in the test log.
	for _, writers := range []int{4, 16, 32} {
		sharded, single, err := runShardAblation(x5Opts(SweepOpts{Spec: ClusterSpec{Nodes: 50, metaNodes: 8}}, writers))
		if err != nil {
			t.Fatalf("writers=%d: %v", writers, err)
		}
		t.Logf("A7 writers=%d: sharded %.1f versions/s vs single %.1f versions/s",
			writers, sharded.versionsPerSec, single.versionsPerSec)
	}
}

func TestA6GroupCommitNotSlowerThanSerial(t *testing.T) {
	// A6's acceptance bar: batched publication (pipeline depth 8) is
	// at least as fast as the one-block-per-commit baseline (depth 2)
	// at every tested writer count. RunPublishAblation itself errors
	// on a violation; the log line keeps the numbers in the test log.
	for _, n := range []int{1, 4, 16} {
		opts := x2Opts(SweepOpts{Spec: ClusterSpec{Nodes: 34}}, n)
		opts.blocks = 32
		batched, unbatched, err := runPublishAblation(opts)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		t.Logf("A6 n=%d: batched %.1f versions/s vs unbatched %.1f versions/s",
			n, batched.versionsPerSec, unbatched.versionsPerSec)
	}
}

func TestX7TieredRecovery(t *testing.T) {
	res, err := runTieredRecovery(tieredOpts{
		clients:        2,
		bytesPerClient: 16 * MB,
		dir:            t.TempDir(),
		storage:        StorageOpts{replication: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.storedPages == 0 || res.recoveredPages != res.storedPages {
		t.Fatalf("recovered %d of %d pages", res.recoveredPages, res.storedPages)
	}
	if res.logBytes == 0 {
		t.Fatal("no log bytes on disk")
	}
	if res.warm.aggregateMBps < res.cold.aggregateMBps {
		t.Fatalf("warm %.1f MB/s < cold %.1f MB/s", res.warm.aggregateMBps, res.cold.aggregateMBps)
	}
	// Cold reads must actually touch disks: the restarted stores serve
	// nothing from RAM.
	if res.cold.diskBytes == 0 {
		t.Fatal("cold pass charged no disk reads")
	}
}

// smokeServeOpts is the reduced-scale X8 configuration: a small tenant
// population and a slow version manager, so 10x offered load is well
// past saturation inside a short virtual window.
func smokeServeOpts() serveOpts {
	return serveOpts{
		tenants:       50,
		baseRate:      200,
		duration:      4 * time.Second,
		vmServiceTime: 500 * time.Microsecond,
		nodes:         12,
	}
}

func TestX8GracefulDegradationUnderOverload(t *testing.T) {
	open, admitted, err := runServeSweep(smokeServeOpts(), []float64{1, 10})
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range []float64{1, 10} {
		o, a := open[i], admitted[i]
		t.Logf("x8 %2.0fx open : offered %d completed %d goodput %.0f/s p99 %s inflight<=%d",
			m, o.report.Offered, o.report.Completed, o.goodputPerSec, o.report.P99, o.report.MaxInflight)
		t.Logf("x8 %2.0fx admit: offered %d completed %d rejected %d goodput %.0f/s p99 %s inflight<=%d",
			m, a.report.Offered, a.report.Completed, a.report.Rejected, a.goodputPerSec, a.report.P99, a.report.MaxInflight)
	}
	// The sweep itself asserts goodput and the admitted tail; the
	// smoke adds the queue-growth claim: at 10x the open run's
	// in-flight high-water mark must dwarf the admitted run's.
	o10, a10 := open[1], admitted[1]
	if a10.report.Rejected == 0 {
		t.Fatal("admission at 10x rejected nothing")
	}
	if o10.report.MaxInflight < 2*a10.report.MaxInflight {
		t.Fatalf("open-loop backlog %d not meaningfully above admitted %d",
			o10.report.MaxInflight, a10.report.MaxInflight)
	}
}

// TestStorageOptsSurface pins StorageOpts' fields, exported or not:
// each is a settable value. The admission rule for a new one (see
// core's TestOptionsSurface): an experiment in this package sets it to
// a second value — an arm that compares the code with its own past is
// not an experiment.
func TestStorageOptsSurface(t *testing.T) {
	typ := reflect.TypeOf(StorageOpts{})
	var got []string
	for i := 0; i < typ.NumField(); i++ {
		got = append(got, typ.Field(i).Name)
	}
	want := []string{"Kind", "replication", "pageSize", "BlockSize", "memCapacity", "store",
		"localFirstPlacement", "disableClientCache", "ramDatanodes", "maxInFlightBlocks", "vmShards", "vmServiceTime"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("StorageOpts has fields %v, want exactly %v", got, want)
	}
}

// TestPublishOptsSurface pins publishOpts' fields: the publish
// workload's own knobs are its shape (writers, the writer -> file
// mapping, versions per writer); block size, pipeline depth and the
// version-manager tier are StorageOpts fields.
func TestPublishOptsSurface(t *testing.T) {
	typ := reflect.TypeOf(publishOpts{})
	var got []string
	for i := 0; i < typ.NumField(); i++ {
		got = append(got, typ.Field(i).Name)
	}
	want := []string{"writers", "files", "blocks", "storage", "spec"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("publishOpts has fields %v, want exactly %v", got, want)
	}
}

// TestPhase pins the measurement every experiment shares: the clients
// run at once, each is timed, the fabric bytes moved meanwhile are
// counted, and a failing client neither hides its error nor drops the
// other clients' timings.
func TestPhase(t *testing.T) {
	tb, err := NewTestbed(ClusterSpec{Nodes: 4}, StorageOpts{Kind: "bsfs"})
	if err != nil {
		t.Fatal(err)
	}
	nodes := tb.clientNodes(3)
	boom := errors.New("boom")
	var ok, failed Point
	var okErr, failedErr error
	err = tb.Run(func() {
		// Client i sleeps i x 10ms; node 1 (client 0) moves 1 MiB instead.
		ok, okErr = tb.phase("ok", MB, nodes, func(i int, node cluster.NodeID) error {
			tb.Env.Sleep(time.Duration(i) * 10 * time.Millisecond)
			if node == 1 {
				tb.Env.Unicast(node, 2, MB)
			}
			return nil
		})
		// Client i sleeps (i+1) x 10ms; client 0 then fails.
		failed, failedErr = tb.phase("failed", MB, nodes, func(i int, _ cluster.NodeID) error {
			tb.Env.Sleep(time.Duration(i+1) * 10 * time.Millisecond)
			if i == 0 {
				return boom
			}
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if okErr != nil {
		t.Fatal(okErr)
	}
	if ok.experiment != "ok" || ok.clients != 3 {
		t.Fatalf("point %q with %d clients, want \"ok\" with 3", ok.experiment, ok.clients)
	}
	if ok.duration < 20*time.Millisecond {
		t.Fatalf("makespan %s, want >= 20ms", ok.duration)
	}
	// The slowest client is the 20ms sleeper; the fastest moved 1 MiB in
	// under 10ms.
	if ok.minMBps != mbps(MB, 20*time.Millisecond) || ok.maxMBps <= mbps(MB, 10*time.Millisecond) {
		t.Fatalf("spread %.1f..%.1f MB/s, want min %.1f and max above %.1f",
			ok.minMBps, ok.maxMBps, mbps(MB, 20*time.Millisecond), mbps(MB, 10*time.Millisecond))
	}
	if ok.netBytes < MB {
		t.Fatalf("phase counted %d network bytes, want >= %d", ok.netBytes, MB)
	}
	if !errors.Is(failedErr, boom) {
		t.Fatalf("failing phase returned %v, want %v", failedErr, boom)
	}
	if failed.clients != 3 || failed.duration != 30*time.Millisecond ||
		failed.minMBps != mbps(MB, 30*time.Millisecond) || failed.maxMBps != mbps(MB, 10*time.Millisecond) {
		t.Fatalf("failing phase lost timings: %+v", failed)
	}
}
