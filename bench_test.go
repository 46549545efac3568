// bench_test.go regenerates every figure and table of the paper's
// evaluation (§IV) as Go benchmarks, one target per experiment:
//
//	E1  BenchmarkE1ReadDistinctFiles   — §IV.B microbenchmark 1
//	E2  BenchmarkE2ReadSharedFile      — §IV.B microbenchmark 2
//	E3  BenchmarkE3WriteDistinctFiles  — §IV.B microbenchmark 3
//	E4  BenchmarkE4RandomTextWriter    — §IV.C application 1
//	E5  BenchmarkE5DistributedGrep     — §IV.C application 2
//	X1  BenchmarkX1ConcurrentAppend    — §V future work: shared appends
//	X4  BenchmarkX4SnapshotIsolation   — §V future work: versioned jobs
//	A1-A4                              — ablations (see README.md, "Running the benchmarks")
//
// Each iteration builds a fresh simulated cluster, runs the workload in
// virtual time, and reports the paper's metric (per-client MB/s or job
// completion seconds) as custom benchmark units. Benchmarks run at a
// reduced default scale so `go test -bench=.` finishes quickly; set
// -paperscale to run the full 270-node / 1 GB-per-client setup the
// paper used (cmd/bsfs-bench defaults to it).
package main

import (
	"flag"
	"fmt"
	"testing"

	"repro/internal/bench"
)

var paperScale = flag.Bool("paperscale", false, "run benchmarks at the paper's full 270-node scale")

// scale returns the benchmark scale: clients, bytes/client, spec, cache.
func scale() (int, int64, bench.ClusterSpec, int64) {
	if *paperScale {
		return 100, 1 * bench.GB, bench.ClusterSpec{Nodes: 270}, 512 * bench.MB
	}
	return 25, 128 * bench.MB, bench.ClusterSpec{Nodes: 60, MetaNodes: 8}, 48 * bench.MB
}

func microOpts(kind string) bench.MicroOpts {
	clients, per, spec, cache := scale()
	return bench.MicroOpts{
		Clients:        clients,
		BytesPerClient: per,
		Spec:           spec,
		Storage:        bench.StorageOpts{Kind: kind, MemCapacity: cache},
	}
}

func appOpts(kind string) bench.AppOpts {
	clients, per, spec, cache := scale()
	return bench.AppOpts{
		Maps:        clients,
		BytesPerMap: per,
		Spec:        spec,
		Storage:     bench.StorageOpts{Kind: kind, MemCapacity: cache},
	}
}

// reportPoint publishes a microbenchmark point as benchmark metrics.
func reportPoint(b *testing.B, p bench.Point) {
	b.ReportMetric(p.PerClientMBps, "MB/s/client")
	b.ReportMetric(p.AggregateMBps, "MB/s-total")
	b.ReportMetric(p.Duration.Seconds(), "cluster-s")
}

func benchMicro(b *testing.B, kind string, run func(bench.MicroOpts) (bench.Point, error)) {
	var last bench.Point
	for i := 0; i < b.N; i++ {
		p, err := run(microOpts(kind))
		if err != nil {
			b.Fatal(err)
		}
		last = p
	}
	reportPoint(b, last)
}

func BenchmarkE1ReadDistinctFiles(b *testing.B) {
	b.Run("bsfs", func(b *testing.B) { benchMicro(b, "bsfs", bench.RunReadDistinct) })
	b.Run("hdfs", func(b *testing.B) { benchMicro(b, "hdfs", bench.RunReadDistinct) })
}

func BenchmarkE2ReadSharedFile(b *testing.B) {
	b.Run("bsfs", func(b *testing.B) { benchMicro(b, "bsfs", bench.RunReadShared) })
	b.Run("hdfs", func(b *testing.B) { benchMicro(b, "hdfs", bench.RunReadShared) })
}

func BenchmarkE3WriteDistinctFiles(b *testing.B) {
	b.Run("bsfs", func(b *testing.B) { benchMicro(b, "bsfs", bench.RunWriteDistinct) })
	b.Run("hdfs", func(b *testing.B) { benchMicro(b, "hdfs", bench.RunWriteDistinct) })
}

func benchApp(b *testing.B, kind string, run func(bench.AppOpts) (bench.AppResult, error)) {
	var last bench.AppResult
	for i := 0; i < b.N; i++ {
		r, err := run(appOpts(kind))
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.Completion.Seconds(), "job-s")
	b.ReportMetric(float64(last.Counters.MapTasks), "maps")
}

func BenchmarkE4RandomTextWriter(b *testing.B) {
	b.Run("bsfs", func(b *testing.B) { benchApp(b, "bsfs", bench.RunRandomTextWriter) })
	b.Run("hdfs", func(b *testing.B) { benchApp(b, "hdfs", bench.RunRandomTextWriter) })
}

func BenchmarkE5DistributedGrep(b *testing.B) {
	b.Run("bsfs", func(b *testing.B) { benchApp(b, "bsfs", bench.RunDistributedGrep) })
	b.Run("hdfs", func(b *testing.B) { benchApp(b, "hdfs", bench.RunDistributedGrep) })
}

func BenchmarkX1ConcurrentAppend(b *testing.B) {
	// BSFS only: HDFS rejects the workload (asserted in unit tests).
	b.Run("bsfs", func(b *testing.B) { benchMicro(b, "bsfs", bench.RunAppendShared) })
}

func BenchmarkX4SnapshotIsolation(b *testing.B) {
	var last []bench.AppResult
	for i := 0; i < b.N; i++ {
		opts := appOpts("bsfs")
		opts.Maps = max(opts.Maps/4, 4)
		results, err := bench.RunSnapshotWorkflow(opts)
		if err != nil {
			b.Fatal(err)
		}
		last = results
	}
	for _, r := range last {
		b.ReportMetric(r.Completion.Seconds(), fmt.Sprintf("%s-s", r.Experiment))
	}
}

func BenchmarkA1PlacementAblation(b *testing.B) {
	b.Run("striped", func(b *testing.B) { benchMicro(b, "bsfs", bench.RunReadDistinct) })
	b.Run("local-first", func(b *testing.B) {
		var last bench.Point
		for i := 0; i < b.N; i++ {
			o := microOpts("bsfs")
			o.Storage.LocalFirstPlacement = true
			p, err := bench.RunReadDistinct(o)
			if err != nil {
				b.Fatal(err)
			}
			last = p
		}
		reportPoint(b, last)
	})
}

func BenchmarkA2ClientCacheAblation(b *testing.B) {
	run := func(b *testing.B, disable bool) {
		var last bench.Point
		for i := 0; i < b.N; i++ {
			o := microOpts("bsfs")
			o.RecordSize = 1 * bench.MB // MapReduce-style record reads
			o.Storage.DisableClientCache = disable
			p, err := bench.RunReadDistinct(o)
			if err != nil {
				b.Fatal(err)
			}
			last = p
		}
		reportPoint(b, last)
	}
	b.Run("cache-on", func(b *testing.B) { run(b, false) })
	b.Run("cache-off", func(b *testing.B) { run(b, true) })
}

func BenchmarkA3PageSizeAblation(b *testing.B) {
	for _, ps := range []int64{64 * bench.KB, 256 * bench.KB, 1 * bench.MB, 4 * bench.MB} {
		b.Run(fmt.Sprintf("page-%dKB", ps/bench.KB), func(b *testing.B) {
			var last bench.Point
			for i := 0; i < b.N; i++ {
				o := microOpts("bsfs")
				o.Storage.PageSize = ps
				p, err := bench.RunReadShared(o)
				if err != nil {
					b.Fatal(err)
				}
				last = p
			}
			reportPoint(b, last)
		})
	}
}

func BenchmarkA4WriteThroughAblation(b *testing.B) {
	b.Run("write-through", func(b *testing.B) { benchMicro(b, "hdfs", bench.RunWriteDistinct) })
	b.Run("ram-datanodes", func(b *testing.B) {
		var last bench.Point
		for i := 0; i < b.N; i++ {
			o := microOpts("hdfs")
			o.Storage.RAMDatanodes = true
			p, err := bench.RunWriteDistinct(o)
			if err != nil {
				b.Fatal(err)
			}
			last = p
		}
		reportPoint(b, last)
	})
}
