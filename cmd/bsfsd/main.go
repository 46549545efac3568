// Command bsfsd hosts a BSFS deployment (BlobSeer version-manager
// tier, placement manager, providers, metadata DHT, and the BSFS
// namespace manager) and serves the file system to remote clients over
// TCP. Pair it with cmd/blobctl.
//
// With -store, each provider's RAM page cache sits over a persistent
// backend selected by spec — "disk:/var/lib/bsfsd" persists pages to
// per-provider write-ahead logs that survive restarts (a restarted
// bsfsd recovers the full page index from the logs and reports how many
// pages came back); "mem:" and "null:" are testing backends. With
// -vm-shards N, version management is partitioned per blob across N
// independent shards (blobctl's `shards` command shows the tier and any
// file's owner). The provider fleet is dynamic: blobctl's `join`,
// `drain` and `leave` commands grow and shrink it at runtime (-spares
// reserves node headroom for joins), and `providers` shows each
// member's health, backend and store occupancy.
//
// Usage:
//
//	bsfsd -listen :7700 -providers 4 -page 262144 -store disk:/var/lib/bsfsd
//	bsfsd -listen :7700 -providers 8 -vm-shards 4
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"time"

	"repro/internal/bsfs"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/rpcnet"
	"repro/internal/store"
)

func main() {
	var (
		listen      = flag.String("listen", ":7700", "TCP listen address")
		providers   = flag.Int("providers", 4, "number of page providers")
		pageSize    = flag.Int64("page", 256<<10, "blob page size in bytes")
		blockSize   = flag.Int64("block", 64<<20, "BSFS block size in bytes")
		replicas    = flag.Int("replicas", 1, "page replication factor")
		storeSpec   = flag.String("store", "", "provider backend spec: disk:PATH, mem:, null: (empty = in-memory)")
		inflight    = flag.Int("inflight", 0, "writer commit-pipeline depth in blocks (0 = default 2; 4 and up batch several blocks per version-manager round trip)")
		vmShards    = flag.Int("vm-shards", 1, "version-manager shard count (blobs partition across shards by id)")
		spares      = flag.Int("spares", 32, "node headroom reserved for providers joining at runtime")
		sweep       = flag.Duration("placement-interval", 10*time.Second, "background placement sweep interval: repair + rebalance (0 disables)")
		heartbeat   = flag.Duration("heartbeat", 2*time.Second, "provider health-check interval (0 = probe only during sweeps)")
		tenantRate  = flag.Float64("tenant-rate", 0, "per-tenant admitted ops/sec; over-rate tenants are rejected with a retry-after hint (0 disables admission)")
		tenantBurst = flag.Float64("tenant-burst", 0, "per-tenant token-bucket depth (0 = max(rate, 1))")
	)
	flag.Parse()
	if *vmShards < 1 {
		*vmShards = 1
	}
	if *spares < 0 {
		*spares = 0
	}
	if err := store.Valid(*storeSpec); err != nil {
		log.Fatalf("bsfsd: -store: %v", err)
	}

	// Node 0 hosts the masters (shard 0, placement manager, namespace),
	// nodes 1..providers the page providers, any extra shards get their
	// own nodes after the providers, and the spare range past that is
	// headroom for providers joining at runtime.
	env := cluster.NewLocal(*providers+*vmShards+*spares, 0)
	nodes := make([]cluster.NodeID, *providers)
	for i := range nodes {
		nodes[i] = cluster.NodeID(i + 1)
	}
	vmNodes := make([]cluster.NodeID, *vmShards)
	for i := 1; i < *vmShards; i++ {
		vmNodes[i] = cluster.NodeID(*providers + i)
	}
	dep, err := core.NewDeployment(env, core.Options{
		PageSize:          *pageSize,
		Replication:       *replicas,
		VMNodes:           vmNodes,
		ProviderNodes:     nodes,
		Provider:          core.ProviderConfig{Store: *storeSpec},
		PlacementInterval: *sweep,
		HeartbeatInterval: *heartbeat,
		TenantRate:        *tenantRate,
		TenantBurst:       *tenantBurst,
	})
	if err != nil {
		log.Fatalf("bsfsd: %v", err)
	}
	defer dep.Close()
	svc := bsfs.NewService(dep, bsfs.Config{BlockSize: *blockSize, MaxInFlightBlocks: *inflight})

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("bsfsd: %v", err)
	}
	fmt.Printf("bsfsd: serving BSFS on %s (%d providers, page %d, block %d, replicas %d, vm shards %d)\n",
		l.Addr(), *providers, *pageSize, *blockSize, *replicas, *vmShards)
	// Restart recovery report: with a durable backend, a reopened
	// deployment replays each provider's page log at startup.
	var recovered int
	for _, p := range dep.ProviderList() {
		recovered += p.Store().Stats().Recovered
	}
	if spec := dep.ProviderList()[0].Store().BackendSpec(); spec != "" {
		fmt.Printf("bsfsd: provider backends %s: %d pages recovered from previous runs\n", spec, recovered)
	}
	if err := rpcnet.Serve(l, rpcnet.NewService(svc.NewFS(0))); err != nil {
		log.Fatalf("bsfsd: %v", err)
	}
}
