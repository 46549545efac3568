// Command bsfs-bench regenerates the paper's microbenchmark figures
// (E1-E3) and application benchmarks (E4 Random Text Writer, E5
// Distributed Grep, through the MapReduce framework), the extensions
// (X1 concurrent appends, X2 shared-blob publish throughput, X3 provider
// failure/churn with replica repair, X4 MapReduce jobs on different
// snapshots, X5 sharded version-manager scaling, X6 membership churn,
// X7 tiered storage recovery over durable backends, X8 heavy-traffic
// serving)
// and the ablation studies (A1-A4, A6's batched-vs-unbatched publish,
// A7's sharded-vs-centralized version management) on a simulated
// Grid'5000-style cluster. bench.Experiments is the registry; -list
// prints it, and bench.RunExperiments is the loop that runs it.
//
// Usage:
//
//	bsfs-bench                          # run everything at paper scale
//	bsfs-bench -exp e3                  # one experiment
//	bsfs-bench -clients 1,50,250        # custom sweep
//	bsfs-bench -size 256 -nodes 90      # reduced scale (MB per client)
//	bsfs-bench -replicas 3              # replicated deployments
//	bsfs-bench -json results.json       # record results (name, params, metrics)
//
// The committed golden, BENCH_sim.json, is this command's -json output
// at -exp all -nodes 60 -clients 1,4,16 -size 64 -cache 48. The golden
// test in internal/bench (TestGolden) runs the same loop in process and
// checks it byte for byte.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/bench"
)

func main() {
	ids := make([]string, len(bench.Experiments))
	for i, e := range bench.Experiments {
		ids[i] = e.ID
	}
	idList := strings.Join(ids, " ")
	var (
		exp      = flag.String("exp", "all", "experiment id: "+idList+", or 'all'")
		clients  = flag.String("clients", "1,20,50,100,150,200,250", "comma-separated client counts")
		sizeMB   = flag.Int64("size", 1024, "data per client in MB (paper: 1024)")
		nodes    = flag.Int("nodes", 270, "cluster size (paper: 270)")
		cacheMB  = flag.Int64("cache", 512, "storage-node RAM cache in MB")
		replicas = flag.Int("replicas", 1, "data replication factor for both systems")
		jsonPath = flag.String("json", "", "also write results (name, params, metrics) as JSON to this path")
		list     = flag.Bool("list", false, "list experiments and exit")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}

	var counts []int
	for _, part := range strings.Split(*clients, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "bsfs-bench: bad client count %q\n", part)
			os.Exit(2)
		}
		counts = append(counts, n)
	}
	for _, n := range counts {
		if n > *nodes-1 {
			fmt.Fprintf(os.Stderr, "bsfs-bench: %d clients exceed %d storage nodes\n", n, *nodes-1)
			os.Exit(2)
		}
	}

	opts := bench.SweepOpts{
		Clients:        counts,
		BytesPerClient: *sizeMB * bench.MB,
		Spec:           bench.ClusterSpec{Nodes: *nodes},
		MemCapacity:    *cacheMB * bench.MB,
		Replication:    *replicas,
	}

	todo := bench.Experiments
	if *exp != "all" {
		e, ok := bench.FindExperiment(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "bsfs-bench: unknown experiment %q (have %s, or 'all')\n", *exp, idList)
			os.Exit(2)
		}
		todo = []bench.Experiment{e}
	}

	results, err := bench.RunExperiments(os.Stdout, os.Stderr, opts, todo)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bsfs-bench: %v\n", err)
		os.Exit(1)
	}
	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err == nil {
			err = bench.WriteResultsJSON(f, opts, results)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bsfs-bench: writing %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %s\n", *jsonPath)
	}
}
