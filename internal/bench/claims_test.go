package bench

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
)

// A claim is one statement about the results, stated once: a claim of
// the paper (its section in sec) or an extension's acceptance bar
// ("ext."), with the predicate that decides it. The test named in the
// row checks it over this run's results and over the committed golden,
// and TestGolden renders every row, with the numbers its predicate read
// and its verdict, into RESULTS.md. A predicate reads only a results
// document, so any bsfs-bench -json file can be checked without a run.
//
// Correctness checks (sizes tile, versions are exact, nothing is lost,
// replication is restored) stay inside the runs, which fail on them.
type claim struct {
	test, sec, text string
	holds           func(r *reading) bool
}

// micro lists the §IV.B microbenchmarks: experiment id and point name.
var micro = [][2]string{{"e1", "E1-read-distinct"}, {"e2", "E2-read-shared"}, {"e3", "E3-write-distinct"}}

// x7sizes are X7's store sizes in MB.
var x7sizes = []int{64, 256, 1024}

var claims = []claim{
	{"TestE1ReadDistinctShapes", "§IV.B", "E1: BSFS reads distinct files faster per client than HDFS, at every client count",
		func(r *reading) bool { return r.beats(micro[0]) }},
	{"TestE2ReadSharedShapes", "§IV.B", "E2: BSFS reads disjoint parts of one file faster per client than HDFS, at every client count",
		func(r *reading) bool { return r.beats(micro[1]) }},
	{"TestE3WriteBSFSBeatsHDFS", "§IV.B", "E3: BSFS writes distinct files faster per client than HDFS, at every client count",
		func(r *reading) bool { return r.beats(micro[2]) }},
	{"TestE3WriteBSFSBeatsHDFS", "§IV.B", "E3: HDFS's write-through pipeline is disk-bound: at most 70 MB/s per client",
		func(r *reading) bool { return all(r.series("e3", "E3-write-distinct", "hdfs"), atMost(70)) }},
	{"TestBSFSSustainsUnderConcurrency", "§IV.B", "E1-E3: BSFS keeps at least half its per-client MB/s from the fewest clients to the most",
		func(r *reading) bool { return all(r.growth("bsfs"), atLeast(0.5)) }},
	{"TestBSFSSustainsUnderConcurrency", "§IV.B", "HDFS per-client MB/s falls where clients share a file: from the fewest clients to the most, E2's by over 10 %, while E1's and E3's stay within 1 %",
		func(r *reading) bool {
			g := r.growth("hdfs")
			return g[1] < 0.9 && math.Abs(g[0]-1) <= 0.01 && math.Abs(g[2]-1) <= 0.01
		}},
	{"TestX1AppendSharedWorksOnlyOnBSFS", "§V", "X1: clients append to one file at once on BSFS, at every client count; HDFS has no series, as the run fails unless HDFS refuses with ErrNotSupported",
		func(r *reading) bool {
			b := r.series("x1", "X1-append-shared", "bsfs")
			return len(b) == len(r.clients()) && all(b, above(0)) && r.series("x1", "X1-append-shared", "hdfs") == nil
		}},
	{"TestE4RandomTextWriter", "§IV.C", "E4: Random Text Writer completes sooner on BSFS than on HDFS",
		func(r *reading) bool { return r.sooner("e4", "E4-random-text-writer") }},
	{"TestE4RandomTextWriter", "§IV.C", "E4: each job writes maps × bytes per map (one map per client at the largest count), on both file systems",
		func(r *reading) bool { return r.volume("e4", "E4-random-text-writer", "output") }},
	{"TestE5DistributedGrep", "§IV.C", "E5: Distributed Grep completes sooner on BSFS than on HDFS",
		func(r *reading) bool { return r.sooner("e5", "E5-distributed-grep") }},
	{"TestAppExperimentsRecordMetrics", "§IV.C", "E5: each grep job reads maps × bytes per map, on both file systems",
		func(r *reading) bool { return r.volume("e5", "E5-distributed-grep", "input") }},
	{"TestX4SnapshotWorkflow", "§V", "X4: while a writer appends, the job on snapshot 2 reads twice the bytes of the job on snapshot 1",
		func(r *reading) bool {
			in := over(r.metric, "x4", "X4-snapshot-grep-%d_bsfs_input", []int{1, 2})
			return in[0] > 0 && in[1] == 2*in[0]
		}},
	{"TestX3FaultChurn", "ext.", "X3: reads run healthy and with providers killed, and repair re-copies degraded pages in virtual time, at every client count",
		func(r *reading) bool {
			return all(r.series("x3", "X3-healthy", "bsfs"), above(0)) && all(r.series("x3", "X3-degraded", "bsfs"), above(0)) &&
				all(over(r.metric, "x3", "pages_repaired_n%d", r.clients()), above(0)) &&
				all(over(r.metric, "x3", "repair_duration_n%d", r.clients()), above(0))
		}},
	{"TestX6MembershipChurn", "ext.", "X6: writers publish through every churn cycle, each cycle moves the epoch at least 3 times, and the sweeps both repair and migrate pages",
		func(r *reading) bool {
			c := r.value("cycles", x6Cycles)
			return r.metric("x6", "appends") >= c && r.metric("x6", "final_epoch") >= 3*c &&
				r.metric("x6", "replicas_added") > 0 && r.metric("x6", "pages_migrated") > 0
		}},
	{"TestA1PlacementAblation", "§IV.B", "A1: HDFS-style local-first placement reads as fast as striping with one client and slower with more",
		func(r *reading) bool {
			s, l := r.series("a1", "E1-read-distinct", "bsfs"), r.series("a1", "A1-local-first", "bsfs")
			return len(l) == len(s) && all(l, func(i int, x float64) bool { return x < s[i] || r.clients()[i] == 1 && x == s[i] })
		}},
	{"TestA2ClientCacheAblation", "§III.B", "A2: with its client block cache, BSFS reads 1 MB records faster per client than request-granular BlobSeer reads, at every client count",
		func(r *reading) bool {
			c, n := r.series("a2", "E1-read-distinct", "bsfs"), r.series("a2", "A2-no-client-cache", "bsfs")
			return len(n) == len(c) && all(c, func(i int, x float64) bool { return x > n[i] })
		}},
	{"TestX2PublishThroughputScalesWithWriters", "ext.", "X2: the most writers on one blob publish at least twice the versions/s of the fewest",
		func(r *reading) bool {
			v := over(r.metric, "x2", "publish_rate_n%d", r.clients())
			return len(v) > 0 && v[len(v)-1] >= 2*v[0]
		}},
	{"TestX5ShardedPublishScales", "ext.", "X5: four version-manager shards publish more versions/s than one",
		func(r *reading) bool {
			v := over(r.metric, "x5", "publish_rate_shards%d", []int{1, 4})
			return v[1] > v[0]
		}},
	{"TestA6GroupCommitNotSlowerThanSerial", "ext.", "A6: batched publication (pipeline depth 8) is at least as fast as depth 2, at every writer count",
		func(r *reading) bool {
			return all(over(r.metric, "a6", "group_commit_speedup_n%d", r.clients()), atLeast(1))
		}},
	{"TestA7ShardedNotSlowerThanSingle", "ext.", "A7: the sharded version-manager tier publishes at least as fast as one shard, at 8, 32 and 64 writers",
		func(r *reading) bool {
			return all(over(r.metric, "a7", "sharding_speedup_w%d", []int{8, 32, 64}), atLeast(1))
		}},
	{"TestX7TieredRecovery", "ext.", "X7: a restarted fleet recovers pages from its logs, and the cold pass reads them from disk, at every store size",
		func(r *reading) bool {
			return all(over(r.metric, "x7", "recovered_pages_%dmb", x7sizes), above(0)) &&
				all(over(r.disk, "x7", "X7-cold-%dMB", x7sizes), above(0))
		}},
	{"TestX7TieredRecovery", "ext.", "X7: warm reads run at the cold pass's MB/s at every store size, both being network-bound; the RAM tier shows as disk traffic: at 64 MB the warm pass reads no disk",
		func(r *reading) bool {
			return slices.Equal(over(r.metric, "x7", "warm_read_%dmb", x7sizes), over(r.metric, "x7", "cold_read_%dmb", x7sizes)) &&
				r.disk("x7", "X7-warm-64MB") == 0
		}},
	{"TestX8GracefulDegradationUnderOverload", "ext.", "X8 at 10x load: admission keeps at least the open run's SLO goodput, with its p99 inside the SLO",
		func(r *reading) bool {
			return r.metric("x8", "goodput_admit_10x") >= r.metric("x8", "goodput_open_10x") &&
				r.metric("x8", "p99_admit_10x") <= r.value("slo_ms", ms(x8SLO))
		}},
	{"TestX8GracefulDegradationUnderOverload", "ext.", "X8 at 10x load: admission rejects ops, and the open run's in-flight high-water mark is at least twice the admitted run's",
		func(r *reading) bool {
			return r.metric("x8", "rejected_admit_10x") > 0 &&
				r.metric("x8", "max_inflight_open_10x") >= 2*r.metric("x8", "max_inflight_admit_10x")
		}},
}

// checkClaims checks the calling test's rows of the claims table over
// this run's results and, unless -update is rewriting it, the golden.
func checkClaims(t *testing.T) {
	_, run := goldenRun(t)
	docs := map[string]*resultsFile{"this run": run}
	if !*update {
		_, docs[goldenPath] = readGolden(t)
	}
	n := 0
	for _, c := range claims {
		if c.test != t.Name() {
			continue
		}
		n++
		for src, doc := range docs {
			if read, ok := c.eval(doc); !ok {
				t.Errorf("%s: claim fails (%s %s): %s", src, c.sec, c.text, read)
			}
		}
	}
	if n == 0 {
		t.Fatal("no claim names this test")
	}
}

// reading evaluates one claim over a results document and notes every
// number its predicate reads.
type reading struct {
	doc   *resultsFile
	notes []string
}

// eval decides c over doc and returns the numbers it read.
func (c claim) eval(doc *resultsFile) (read string, ok bool) {
	r := &reading{doc: doc}
	ok = c.holds(r)
	return strings.Join(r.notes, "; "), ok
}

func (r *reading) clients() []int { return r.doc.Params.Clients }

// value notes a number the predicate reads from outside the document.
func (r *reading) value(name string, v float64) float64 {
	r.notes = append(r.notes, fmt.Sprintf("%s %.4g", name, v))
	return v
}

// series returns the per-client MB/s of experiment id's points with the
// given name and file system, in client order.
func (r *reading) series(id, name, fs string) []float64 {
	var vs []float64
	for _, p := range r.exp(id).Points {
		if p.Experiment == name && p.FS == fs {
			vs = append(vs, p.PerClientMBps)
		}
	}
	r.notes = append(r.notes, fmt.Sprintf("%s %s MB/s %.4g", name, fs, vs))
	return vs
}

// disk returns the disk bytes of experiment id's point name.
func (r *reading) disk(id, name string) float64 {
	v := math.NaN()
	for _, p := range r.exp(id).Points {
		if p.Experiment == name {
			v = float64(p.DiskBytes)
		}
	}
	return r.value(name+" disk_bytes", v)
}

// metric returns experiment id's metric name.
func (r *reading) metric(id, name string) float64 {
	v := math.NaN()
	for _, m := range r.exp(id).Metrics {
		if m.Name == name {
			v = m.Value
		}
	}
	return r.value(name, v)
}

func (r *reading) exp(id string) ExperimentResult {
	for _, e := range r.doc.Experiments {
		if e.ID == id {
			return e
		}
	}
	return ExperimentResult{}
}

// over reads one value per n of ns: read(id, fmt.Sprintf(format, n)).
// A missing value reads NaN, which fails every comparison.
func over(read func(id, name string) float64, id, format string, ns []int) []float64 {
	vs := make([]float64, len(ns))
	for i, n := range ns {
		vs[i] = read(id, fmt.Sprintf(format, n))
	}
	return vs
}

// growth returns, for each §IV.B microbenchmark, fs's per-client MB/s at
// the most clients over that at the fewest.
func (r *reading) growth(fs string) []float64 {
	gs := make([]float64, len(micro))
	for i, m := range micro {
		gs[i] = math.NaN()
		if s := r.series(m[0], m[1], fs); len(s) > 0 {
			gs[i] = s[len(s)-1] / s[0]
		}
	}
	return gs
}

// beats: BSFS's per-client MB/s exceeds HDFS's at every client count.
func (r *reading) beats(m [2]string) bool {
	b, h := r.series(m[0], m[1], "bsfs"), r.series(m[0], m[1], "hdfs")
	return len(b) == len(h) && all(b, func(i int, x float64) bool { return x > h[i] })
}

// sooner: the application job completes sooner on BSFS than on HDFS.
func (r *reading) sooner(id, job string) bool {
	return r.metric(id, job+"_bsfs_completion") < r.metric(id, job+"_hdfs_completion")
}

// volume: on both file systems the job's counter is maps × bytes per
// map, one map per client at the largest client count.
func (r *reading) volume(id, job, counter string) bool {
	want := r.value("maps × bytes per map", float64(slices.Max(r.clients()))*float64(r.doc.Params.BytesPerClient))
	return r.metric(id, job+"_bsfs_"+counter) == want && r.metric(id, job+"_hdfs_"+counter) == want
}

// all reports whether f holds at every index of a non-empty xs.
func all[T any](xs []T, f func(int, T) bool) bool {
	for i, x := range xs {
		if !f(i, x) {
			return false
		}
	}
	return len(xs) > 0
}

func above(v float64) func(int, float64) bool   { return func(_ int, x float64) bool { return x > v } }
func atLeast(v float64) func(int, float64) bool { return func(_ int, x float64) bool { return x >= v } }
func atMost(v float64) func(int, float64) bool  { return func(_ int, x float64) bool { return x <= v } }
