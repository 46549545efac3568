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

// tieredOpts parameterizes one X7 run.
type tieredOpts struct {
	clients int
	// bytesPerClient sizes the dataset (and with it the per-provider
	// log the restarted providers replay). Default 256 MB.
	bytesPerClient int64
	// dir hosts the provider backends ("disk:"+Dir, scoped per
	// provider). Empty means a temporary directory, removed afterwards.
	dir     string
	spec    ClusterSpec
	storage StorageOpts
}

func (o *tieredOpts) fillDefaults() {
	if o.clients <= 0 {
		o.clients = 4
	}
	if o.bytesPerClient <= 0 {
		o.bytesPerClient = 256 * MB
	}
	// A compact fleet keeps per-provider logs non-trivial: recovery
	// time is the measurement, and 270 providers would shred the
	// dataset into noise.
	if o.spec.Nodes <= 0 {
		o.spec.Nodes = 17
	}
	if o.spec.metaNodes <= 0 {
		o.spec.metaNodes = 8
	}
	o.storage.Kind = "bsfs"
	if o.storage.memCapacity == 0 {
		// Large enough that the warm pass is fully RAM-resident — the
		// contrast under measurement.
		o.storage.memCapacity = 4 * o.bytesPerClient
	}
}

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

// runTieredRecovery is experiment X7: write a dataset onto disk-backed
// providers, restart the whole provider fleet in place, and measure
// recovery time and the cold/warm read contrast.
func runTieredRecovery(opts tieredOpts) (tieredResult, error) {
	opts.fillDefaults()
	dir := opts.dir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "bsfs-x7-*")
		if err != nil {
			return tieredResult{}, err
		}
		defer os.RemoveAll(dir)
	}
	opts.storage.store = "disk:" + dir

	tb, err := NewTestbed(opts.spec, opts.storage)
	if err != nil {
		return tieredResult{}, err
	}
	defer tb.Close()
	dep := tb.deployment()
	clients := tb.clientNodes(opts.clients)
	path := func(i int) string { return fmt.Sprintf("/x7/f%04d", i) }
	readAll := func(i int, c cluster.NodeID) error {
		return readSynthFile(tb, c, path(i), 0, opts.bytesPerClient, 0)
	}
	var res tieredResult
	var runErr error
	err = tb.Run(func() {
		// Load phase, then let the flushers drain.
		if runErr = tb.loadFar(clients, path, opts.bytesPerClient); runErr != nil {
			return
		}
		tb.Env.Sleep(settleTime)
		for _, p := range dep.ProviderList() {
			if runErr = p.FlushNow(); runErr != nil {
				return
			}
			res.storedPages += p.Store().Len()
		}

		// Restart the fleet: each provider closes its store and reopens
		// it over the same backend, replaying the page log. The replay
		// is real work (wall clock); the simulation additionally charges
		// each node a sequential scan of its share of the log.
		total := opts.bytesPerClient * int64(opts.clients) * int64(max(opts.storage.replication, 1))
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
		if res.cold, runErr = tb.phase("X7-cold-read", opts.bytesPerClient, clients, readAll); runErr != nil {
			return
		}
		// Warm pass: the cold pass re-populated the RAM tier.
		res.warm, runErr = tb.phase("X7-warm-read", opts.bytesPerClient, clients, readAll)
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
