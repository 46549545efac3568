// versioned-workflow demonstrates the paper's second future-work
// feature (§V): MapReduce workflows running concurrently on different
// snapshots of the same dataset. A producer keeps appending batches to
// one file; each batch publishes a new snapshot, and analysis jobs run
// against frozen versions while ingestion continues — no copies, no
// coordination.
package main

import (
	"fmt"
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
	const nodes = 30
	eng := sim.NewEngine()
	net := simnet.New(eng, simnet.Grid5000(nodes))
	env := cluster.NewSim(net)

	providers := make([]cluster.NodeID, nodes-1)
	for i := range providers {
		providers[i] = cluster.NodeID(i + 1)
	}
	dep, err := core.NewDeployment(env, core.Options{
		PageSize:      16 << 10,
		ProviderNodes: providers,
	})
	if err != nil {
		log.Fatal(err)
	}
	svc := bsfs.NewService(dep, bsfs.Config{BlockSize: 256 << 10})

	eng.Go(func() {
		mr, err := mapreduce.NewCluster(env, mapreduce.Config{
			WorkerNodes: providers,
			NewFS:       func(n cluster.NodeID) fsapi.FileSystem { return svc.NewFS(n) },
		})
		if err != nil {
			log.Fatal(err)
		}
		fs := svc.NewFS(0)

		// Ingest three batches; after each, remember the snapshot.
		w, err := fs.Create("/stream/events")
		if err != nil {
			log.Fatal(err)
		}
		w.Close()
		var snapshots []core.Version
		for batch := 0; batch < 3; batch++ {
			aw, err := fs.Append("/stream/events")
			if err != nil {
				log.Fatal(err)
			}
			for i := 0; i < 2000; i++ {
				fmt.Fprintf(aw, "batch-%d event-%04d pelf\n", batch, i)
			}
			if err := aw.Close(); err != nil {
				log.Fatal(err)
			}
			vs, err := fs.Versions("/stream/events")
			if err != nil {
				log.Fatal(err)
			}
			snapshots = append(snapshots, vs[len(vs)-1])
			fi, _ := fs.Stat("/stream/events")
			fmt.Printf("ingested batch %d -> snapshot v%d (%d bytes)\n", batch, snapshots[batch], fi.Size)
		}

		// Run one grep per snapshot, all concurrently, while a fourth
		// batch is being ingested.
		wg := env.NewWaitGroup()
		wg.Go(func() {
			aw, err := fs.Append("/stream/events")
			if err != nil {
				return
			}
			for i := 0; i < 2000; i++ {
				fmt.Fprintf(aw, "batch-3 event-%04d pelf\n", i)
			}
			aw.Close()
		})
		type outcome struct {
			snap  core.Version
			bytes int64
		}
		results := make([]outcome, len(snapshots))
		for i, snap := range snapshots {
			wg.Go(func() {
				job := apps.DistributedGrep([]string{"/stream/events"}, fmt.Sprintf("/out/v%d", snap), "batch-", false)
				job.Name = fmt.Sprintf("grep@v%d", snap)
				job.OpenInput = func(f fsapi.FileSystem, path string) (fsapi.Reader, error) {
					return f.OpenAt(path, fsapi.AtVersion(uint64(snap)))
				}
				res, err := mr.Submit(job)
				if err != nil {
					log.Fatal(err)
				}
				results[i] = outcome{snap: snap, bytes: res.Counters.InputBytes}
			})
		}
		wg.Wait()

		fmt.Println("concurrent jobs, each pinned to its snapshot:")
		for _, r := range results {
			fmt.Printf("  grep@v%d scanned %d bytes\n", r.snap, r.bytes)
		}
		// Each later snapshot scanned strictly more data; none saw the
		// in-flight fourth batch beyond its frozen version.
		for i := 1; i < len(results); i++ {
			if results[i].bytes <= results[i-1].bytes {
				log.Fatalf("snapshot isolation violated: v%d scanned %d <= v%d's %d",
					results[i].snap, results[i].bytes, results[i-1].snap, results[i-1].bytes)
			}
		}
		fi, _ := fs.Stat("/stream/events")
		fmt.Printf("meanwhile the live file kept growing: now %d bytes\n", fi.Size)
	})
	if err := eng.Run(); err != nil {
		log.Fatal(err)
	}
}
