// mapreduce-grep runs the paper's Distributed Grep application with
// real data on a simulated 40-node cluster backed by BSFS: generate a
// corpus with Random Text Writer, grep it for a word, and print the
// matches plus the virtual-time job costs — the §IV.C experiment in
// miniature, with actual bytes flowing through every layer.
package main

import (
	"fmt"
	"io"
	"log"

	"repro/internal/apps"
	"repro/internal/bsfs"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fsapi"
	"repro/internal/mapreduce"
	"repro/internal/sim"
	"repro/internal/simnet"
)

func main() {
	const nodes = 40
	eng := sim.NewEngine()
	net := simnet.New(eng, simnet.Grid5000(nodes))
	env := cluster.NewSim(net)

	providers := make([]cluster.NodeID, nodes-1)
	for i := range providers {
		providers[i] = cluster.NodeID(i + 1)
	}
	dep, err := core.NewDeployment(env, core.Options{
		PageSize:      64 << 10,
		ProviderNodes: providers,
	})
	if err != nil {
		log.Fatal(err)
	}
	svc := bsfs.NewService(dep, bsfs.Config{BlockSize: 1 << 20})

	eng.Go(func() {
		mr, err := mapreduce.NewCluster(env, mapreduce.Config{
			WorkerNodes: providers,
			NewFS:       func(n cluster.NodeID) fsapi.FileSystem { return svc.NewFS(n) },
		})
		if err != nil {
			log.Fatal(err)
		}

		// Phase 1: generate ~4 MB of random text across 8 files.
		gen := apps.RandomTextWriter("/corpus", 8, 512<<10, false)
		genRes, err := mr.Submit(gen)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("generated %d files, %d bytes, in %v of cluster time\n",
			genRes.Counters.MapTasks, genRes.Counters.OutputBytes, genRes.Duration)

		// Phase 2: grep for a vocabulary word.
		job := apps.DistributedGrep([]string{"/corpus"}, "/matches", "glaucopis", false)
		res, err := mr.Submit(job)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("grep: %d maps (%d data-local, %d rack-local, %d remote), completed in %v\n",
			res.Counters.MapTasks, res.Counters.DataLocal, res.Counters.RackLocal,
			res.Counters.Remote, res.Duration)
		fmt.Printf("scanned %d bytes, matched %d bytes of lines\n",
			res.Counters.InputBytes, res.Counters.OutputBytes)

		// Show a few matches.
		fs := svc.NewFS(0)
		r, err := fs.Open("/matches/part-r-00000")
		if err != nil {
			log.Fatal(err)
		}
		defer r.Close()
		out, err := io.ReadAll(r)
		if err != nil {
			log.Fatal(err)
		}
		lines := 0
		for i := 0; i < len(out) && lines < 3; i++ {
			if out[i] == '\n' {
				lines++
			}
		}
		fmt.Printf("first matches (offset\\tline):\n%s", out[:firstN(out, 3)])
	})
	if err := eng.Run(); err != nil {
		log.Fatal(err)
	}
}

// firstN returns the byte length of the first n lines.
func firstN(b []byte, n int) int {
	for i := range b {
		if b[i] == '\n' {
			n--
			if n == 0 {
				return i + 1
			}
		}
	}
	return len(b)
}
