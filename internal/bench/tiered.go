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

// TieredOpts parameterizes one X7 run.
type TieredOpts struct {
	Clients int
	// BytesPerClient sizes the dataset (and with it the per-provider
	// log the restarted providers replay). Default 256 MB.
	BytesPerClient int64
	// Dir hosts the provider backends ("disk:"+Dir, scoped per
	// provider). Empty means a temporary directory, removed afterwards.
	Dir     string
	Spec    ClusterSpec
	Storage StorageOpts
}

func (o *TieredOpts) fillDefaults() {
	if o.Clients <= 0 {
		o.Clients = 4
	}
	if o.BytesPerClient <= 0 {
		o.BytesPerClient = 256 * MB
	}
	// A compact fleet keeps per-provider logs non-trivial: recovery
	// time is the measurement, and 270 providers would shred the
	// dataset into noise.
	if o.Spec.Nodes <= 0 {
		o.Spec.Nodes = 17
	}
	if o.Spec.MetaNodes <= 0 {
		o.Spec.MetaNodes = 8
	}
	o.Storage.Kind = "bsfs"
	if o.Storage.MemCapacity == 0 {
		// Large enough that the warm pass is fully RAM-resident — the
		// contrast under measurement.
		o.Storage.MemCapacity = 4 * o.BytesPerClient
	}
}

// TieredResult is the outcome of one X7 run.
type TieredResult struct {
	// Cold is the read pass right after every provider restarted: no
	// page is RAM-resident, every fetch charges the provider's disk.
	Cold Point
	// Warm is the second pass over the same files: the cold pass
	// faulted the pages back into the RAM tier.
	Warm Point
	// StoredPages / RecoveredPages count the fleet's page index before
	// the restarts and as replayed from the backends after.
	StoredPages    int
	RecoveredPages int
	// RecoveryWall is the real (wall-clock) time the fleet spent
	// replaying its logs — the actual cost of the recovery code path.
	RecoveryWall time.Duration
	// RecoverySim is the simulated time charged for scanning the logs
	// at disk speed.
	RecoverySim time.Duration
	// LogBytes is the fleet's on-disk log footprint.
	LogBytes int64
}

// RunTieredRecovery is experiment X7: write a dataset onto disk-backed
// providers, restart the whole provider fleet in place, and measure
// recovery time and the cold/warm read contrast.
func RunTieredRecovery(opts TieredOpts) (TieredResult, error) {
	opts.fillDefaults()
	dir := opts.Dir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "bsfs-x7-*")
		if err != nil {
			return TieredResult{}, err
		}
		defer os.RemoveAll(dir)
	}
	opts.Storage.Store = "disk:" + dir

	tb, err := NewTestbed(opts.Spec, opts.Storage)
	if err != nil {
		return TieredResult{}, err
	}
	defer tb.Close()
	dep := tb.Deployment()
	clients := tb.clientNodes(opts.Clients)
	path := func(i int) string { return fmt.Sprintf("/x7/f%04d", i) }
	readAll := func(i int, c cluster.NodeID) error {
		return readSynthFile(tb, c, path(i), 0, opts.BytesPerClient, 0)
	}
	var res TieredResult
	var runErr error
	err = tb.Run(func() {
		// Load phase, then let the flush daemons drain.
		if runErr = tb.loadFar(clients, path, opts.BytesPerClient); runErr != nil {
			return
		}
		tb.Env.Sleep(settleTime)
		for _, p := range dep.ProviderList() {
			if runErr = p.FlushNow(); runErr != nil {
				return
			}
			res.StoredPages += p.Store().Len()
		}

		// Restart the fleet: each provider closes its store and reopens
		// it over the same backend, replaying the page log. The replay
		// is real work (wall clock); the simulation additionally charges
		// each node a sequential scan of its share of the log.
		total := opts.BytesPerClient * int64(opts.Clients) * int64(max(opts.Storage.Replication, 1))
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
			res.RecoveredPages += n
			tb.Env.DiskRead(node, perProvider)
		}
		res.RecoveryWall = time.Since(wallStart) //bsfs-vet:allow walltime -- X7 measures the real cost of WAL replay
		res.RecoverySim = tb.Env.Now() - simStart

		// Cold pass: nothing is resident; every page faults in from the
		// backend and charges the provider's disk.
		if res.Cold, runErr = tb.phase("X7-cold-read", opts.BytesPerClient, clients, readAll); runErr != nil {
			return
		}
		// Warm pass: the cold pass re-populated the RAM tier.
		res.Warm, runErr = tb.phase("X7-warm-read", opts.BytesPerClient, clients, readAll)
	})
	if err == nil {
		err = runErr
	}
	if err != nil {
		return res, err
	}
	res.LogBytes = dirBytes(dir)
	if res.RecoveredPages != res.StoredPages {
		return res, fmt.Errorf("bench: x7 recovery lost pages: stored %d, recovered %d", res.StoredPages, res.RecoveredPages)
	}
	if res.Warm.AggregateMBps < res.Cold.AggregateMBps {
		return res, fmt.Errorf("bench: x7 warm reads slower than cold: %.1f < %.1f MB/s",
			res.Warm.AggregateMBps, res.Cold.AggregateMBps)
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
