// Quickstart: the BlobSeer core API in-process — open a blob handle,
// write, append, read back, and inspect versions. This is the ten-line
// tour of what the storage layer offers MapReduce (§III.A): versioned,
// concurrent, fine-grained access to huge sequences of bytes, behind a
// handle-plus-options surface (Blob.ReadAt/WriteAt/Append with
// AtVersion, Synthetic, WithCtx).
package main

import (
	"fmt"
	"log"

	"repro/internal/cluster"
	"repro/internal/core"
)

func main() {
	// A local (instantaneous) environment with 4 nodes: node 0 runs
	// the version manager, nodes 1-3 run page providers.
	env := cluster.NewLocal(4, 0)
	dep, err := core.NewDeployment(env, core.Options{
		PageSize:      4 << 10, // 4 KiB pages
		ProviderNodes: []cluster.NodeID{1, 2, 3},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer dep.Close()

	client := dep.NewClient(0)
	blob, err := client.CreateBlob(0)
	if err != nil {
		log.Fatal(err)
	}

	// Every write publishes a new immutable snapshot.
	v1, err := blob.WriteAt([]byte("MapReduce applications process huge files.\n"), 0)
	if err != nil {
		log.Fatal(err)
	}
	vs, _, err := blob.Append(core.Blocks([]byte("BlobSeer versions every write.\n")))
	if err != nil {
		log.Fatal(err)
	}
	v2 := vs[0]
	// Overwrite part of the first line — old snapshots stay intact.
	v3, err := blob.WriteAt([]byte("BLOBSEER__"), 0)
	if err != nil {
		log.Fatal(err)
	}

	show := func(v core.Version) {
		_, size, _ := blob.Latest()
		if v != core.LatestVersion {
			rec, err := dep.VM.Shard(blob.ID()).GetVersion(0, blob.ID(), v)
			if err != nil {
				log.Fatal(err)
			}
			size = rec.SizeAfter
		}
		buf := make([]byte, size)
		n, err := blob.ReadAt(buf, 0, core.AtVersion(v))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("--- version %d (%d bytes) ---\n%s", v, n, buf[:n])
	}

	fmt.Println("quickstart: one blob, three snapshots")
	show(v1)
	show(v2)
	show(v3)

	// The primitive BSFS exposes to the Hadoop scheduler: where does
	// each page live?
	locs, err := blob.Locations(0, 1<<20)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("--- page distribution (the scheduler's locality input) ---")
	for _, l := range locs {
		fmt.Printf("page %d -> providers %v (written by version %d)\n", l.Page, l.Providers, l.Version)
	}

	// Branching: an O(1) copy-on-write snapshot of v2 that diverges
	// independently.
	branch, err := blob.Snapshot(core.AtVersion(v2))
	if err != nil {
		log.Fatal(err)
	}
	if _, _, err := branch.Append(core.Blocks([]byte("branch-only data\n"))); err != nil {
		log.Fatal(err)
	}
	_, branchSize, _ := branch.Latest()
	_, mainSize, _ := blob.Latest()
	fmt.Printf("--- branching ---\ncloned v%d into blob %d: branch %dB, original %dB (shared pages, no copies)\n",
		v2, branch.ID(), branchSize, mainSize)

	// Op-scoped cancellation: a context canceled before the read makes
	// the operation fail promptly with a typed error.
	ctx, cancel := cluster.WithCancel(env)
	cancel()
	if _, err := blob.ReadAt(make([]byte, 8), 0, core.WithCtx(ctx)); err != nil {
		fmt.Printf("--- cancellation ---\ncanceled read: %v\n", err)
	}
}
