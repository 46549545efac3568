// tiered.go runs experiment X7: the tiered-storage recovery study.
// Providers run the full two-tier engine — RAM cache over a disk:
// backend — and the experiment measures what the tier buys and what it
// costs: cold (post-restart, disk-backed) vs warm (RAM-resident) read
// throughput, and how long restart recovery takes as the store grows.

package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cluster"
)

// X7's shape: one value each.
const (
	// x7Clients is the number of readers.
	x7Clients = 4
	// x7Nodes and x7MetaNodes size a compact fleet, which keeps
	// per-provider logs non-trivial: recovery time is the measurement,
	// and 270 providers would shred the dataset into noise.
	x7Nodes     = 17
	x7MetaNodes = 8
)

// tieredResult is the outcome of one X7 run.
type tieredResult struct {
	// cold is the read pass right after every provider restarted: no
	// page is RAM-resident, every fetch charges the provider's disk.
	cold point
	// warm is the second pass over the same files: the cold pass
	// faulted the pages back into the RAM tier.
	warm point
	// storedPages / RecoveredPages count the fleet's page index before
	// the restarts and as replayed from the backends after.
	storedPages    int
	recoveredPages int
	// recoveryWall is the real (wall-clock) time the fleet spent
	// replaying its logs — the actual cost of the recovery code path.
	recoveryWall time.Duration
	// recoverySim is the simulated time charged for scanning the logs
	// at disk speed.
	recoverySim time.Duration
	// logBytes is the fleet's on-disk log footprint.
	logBytes int64
}

// runTieredRecovery is experiment X7: write a dataset of
// bytesPerClient per client onto disk-backed providers, restart the
// whole provider fleet in place, and measure recovery time and the
// cold/warm read contrast. The dataset sizes the per-provider logs the
// restarted providers replay. The providers' backends live in a
// temporary directory, removed afterwards.
func runTieredRecovery(bytesPerClient int64, storage StorageOpts) (tieredResult, error) {
	storage.Kind = "bsfs"
	if storage.memCapacity == 0 {
		// Large enough that the warm pass is fully RAM-resident — the
		// contrast under measurement.
		storage.memCapacity = 4 * bytesPerClient
	}
	dir, err := os.MkdirTemp("", "bsfs-x7-*")
	if err != nil {
		return tieredResult{}, err
	}
	defer os.RemoveAll(dir)
	storage.store = "disk:" + dir

	tb, err := NewTestbed(ClusterSpec{Nodes: x7Nodes, metaNodes: x7MetaNodes}, storage)
	if err != nil {
		return tieredResult{}, err
	}
	defer tb.Close()
	dep := tb.deployment()
	clients := tb.clientNodes(x7Clients)
	path := func(i int) string { return fmt.Sprintf("/x7/f%04d", i) }
	readAll := func(i int, c cluster.NodeID) error {
		return readSynthFile(tb, c, path(i), 0, bytesPerClient, 0)
	}
	var res tieredResult
	var runErr error
	err = tb.Run(func() {
		// Load phase, then let the flushers drain.
		if runErr = tb.loadFar(clients, path, bytesPerClient); runErr != nil {
			return
		}
		tb.Env.Sleep(settleTime)
		for _, p := range dep.ProviderList() {
			if runErr = p.FlushNow(); runErr != nil {
				return
			}
			res.storedPages += p.Store().Stats().Entries
		}

		// Restart the fleet: each provider closes its store and reopens
		// it over the same backend, replaying the page log. The replay
		// is real work (wall clock); the simulation additionally charges
		// each node a sequential scan of its share of the log.
		total := bytesPerClient * x7Clients * int64(max(storage.replication, 1))
		perProvider := total / int64(len(dep.ProviderList()))
		simStart := tb.Env.Now()
		wallStart := time.Now() //bsfs-vet:allow walltime -- X7 measures the real cost of WAL replay
		for _, p := range dep.ProviderList() {
			node := p.Node()
			n, err := dep.RestartProvider(node)
			if err != nil {
				runErr = fmt.Errorf("bench: x7 restart node %d: %w", node, err)
				return
			}
			res.recoveredPages += n
			tb.Env.DiskRead(node, perProvider)
		}
		res.recoveryWall = time.Since(wallStart) //bsfs-vet:allow walltime -- X7 measures the real cost of WAL replay
		res.recoverySim = tb.Env.Now() - simStart

		// Cold pass: nothing is resident; every page faults in from the
		// backend and charges the provider's disk.
		if res.cold, runErr = tb.phase("X7-cold-read", bytesPerClient, clients, readAll); runErr != nil {
			return
		}
		// Warm pass: the cold pass re-populated the RAM tier.
		res.warm, runErr = tb.phase("X7-warm-read", bytesPerClient, clients, readAll)
	})
	if err == nil {
		err = runErr
	}
	if err != nil {
		return res, err
	}
	res.logBytes = dirBytes(dir)
	if res.recoveredPages != res.storedPages {
		return res, fmt.Errorf("bench: x7 recovery lost pages: stored %d, recovered %d", res.storedPages, res.recoveredPages)
	}
	return res, nil
}

// dirBytes sums the sizes of all files under dir.
func dirBytes(dir string) int64 {
	var total int64
	filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			total += fi.Size()
		}
		return nil
	})
	return total
}
