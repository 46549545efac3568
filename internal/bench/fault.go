// fault.go runs the provider-failure/churn scenario (X3): concurrent
// readers lose k providers mid-workload, keep reading through replica
// failover at degraded throughput, and the repair subsystem then
// restores every page to full replication. The scenario measures the
// three numbers that matter for churn tolerance: healthy throughput,
// degraded throughput, and time-to-full-replication.

package bench

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
)

// faultOpts parameterizes the fault/churn scenario.
type faultOpts struct {
	clients        int
	bytesPerClient int64
	// killProviders is the number of providers killed mid-read
	// (default 1). Victims are chosen against the actual page
	// locations so no page loses every replica; the run fails if no
	// such victim set exists for the configured replication.
	killProviders int
	// killDelay is how far into the measured read phase the victims
	// die (default 100ms of virtual time, early enough to land
	// mid-read even at reduced scale).
	killDelay time.Duration
	// recordSize splits each client's read into individual requests of
	// this size (default 8 MB). A single huge request fetches all its
	// pages at one virtual instant, so only record-sized requests give
	// the failure a mid-read window to land in.
	recordSize int64
	storage    StorageOpts
	spec       ClusterSpec
}

func (o *faultOpts) fillDefaults() {
	if o.clients <= 0 {
		o.clients = 1
	}
	if o.bytesPerClient <= 0 {
		o.bytesPerClient = 1 * GB
	}
	if o.killProviders <= 0 {
		o.killProviders = 1
	}
	if o.killDelay <= 0 {
		o.killDelay = 100 * time.Millisecond
	}
	if o.recordSize <= 0 {
		o.recordSize = 8 * MB
	}
	o.storage.Kind = "bsfs" // the scenario exercises BlobSeer's repair
	if o.storage.replication < 2 {
		o.storage.replication = 2
	}
}

// faultResult is the outcome of one fault/churn run.
type faultResult struct {
	// healthy and Degraded are the read throughput before and during
	// the failure.
	healthy  point
	degraded point
	// repairDuration is the virtual time RepairBlob took to restore
	// full replication across all blobs.
	repairDuration time.Duration
	// repair summarizes the repair pass.
	repair core.RepairStats
}

// pickVictims chooses k providers to kill such that no page loses
// every replica, preferring an even spread over the fleet. Replica
// sets are ring walks under the default placement, not node-id
// stripes, so candidates are validated against the actual page
// location sets instead of by spacing arithmetic.
func pickVictims(fleet []cluster.NodeID, k int, pageSets [][]cluster.NodeID) ([]cluster.NodeID, error) {
	victims := make(map[cluster.NodeID]bool, k)
	erases := func(v cluster.NodeID) bool {
		for _, set := range pageSets {
			survivors := 0
			for _, n := range set {
				if n != v && !victims[n] {
					survivors++
				}
			}
			if survivors == 0 {
				return true
			}
		}
		return false
	}
	step := len(fleet) / k
	if step < 1 {
		step = 1
	}
	// Spread-first candidate order: 0, step, 2*step, ... then every
	// remaining node as a fallback.
	order := make([]int, 0, len(fleet))
	seen := make(map[int]bool, len(fleet))
	for i := 0; i < k; i++ {
		idx := (i * step) % len(fleet)
		if !seen[idx] {
			seen[idx] = true
			order = append(order, idx)
		}
	}
	for i := range fleet {
		if !seen[i] {
			order = append(order, i)
		}
	}
	var out []cluster.NodeID
	for _, idx := range order {
		if len(out) == k {
			break
		}
		cand := fleet[idx]
		if victims[cand] || erases(cand) {
			continue
		}
		victims[cand] = true
		out = append(out, cand)
	}
	if len(out) < k {
		return nil, fmt.Errorf("bench: no set of %d victims among %d providers leaves every page a live replica", k, len(fleet))
	}
	return out, nil
}

// runFaultChurn executes the scenario: load one blob per client with
// Replication >= 2, read it all (healthy baseline), read it again
// while k providers die mid-read (degraded), repair, and verify every
// page is back at full replication.
func runFaultChurn(opts faultOpts) (faultResult, error) {
	opts.fillDefaults()
	tb, err := NewTestbed(opts.spec, opts.storage)
	if err != nil {
		return faultResult{}, err
	}
	dep := tb.bsfsSvc.Deployment()
	clients := tb.clientNodes(opts.clients)

	var res faultResult
	var victims []cluster.NodeID
	blobs := make([]core.BlobID, opts.clients)
	readAll := func(label string) (point, error) {
		return tb.phase(label, opts.bytesPerClient, clients, func(i int, node cluster.NodeID) error {
			b, err := dep.NewClient(node).OpenBlob(blobs[i])
			if err != nil {
				return err
			}
			for done := int64(0); done < opts.bytesPerClient; done += opts.recordSize {
				want := min(opts.recordSize, opts.bytesPerClient-done)
				n, err := b.ReadAt(nil, done, core.Synthetic(want))
				if err != nil {
					return err
				}
				if n != want {
					return fmt.Errorf("bench: short read: %d of %d at %d", n, want, done)
				}
			}
			return nil
		})
	}

	var loadErr firstError
	var runErr error
	err = tb.Run(func() {
		// Load phase: one blob per client, written from a distant node.
		wg := tb.Env.NewWaitGroup()
		for i, node := range clients {
			loader := tb.loaderNode(node)
			wg.Go(func() {
				c := dep.NewClient(loader)
				b, err := c.CreateBlob(0)
				if err == nil {
					blobs[i] = b.ID()
					_, err = b.WriteAt(nil, 0, core.Synthetic(opts.bytesPerClient))
				}
				loadErr.set(err)
			})
		}
		wg.Wait()
		if runErr = loadErr.get(); runErr != nil {
			return
		}
		tb.Env.Sleep(settleTime)

		// Victim selection against the actual replica sets of the data
		// just loaded.
		scanner := dep.NewClient(0)
		var pageSets [][]cluster.NodeID
		for _, blob := range blobs {
			sb, err := scanner.OpenBlob(blob)
			if err != nil {
				runErr = err
				return
			}
			locs, err := sb.Locations(0, opts.bytesPerClient)
			if err != nil {
				runErr = err
				return
			}
			for _, loc := range locs {
				if len(loc.Providers) > 0 {
					pageSets = append(pageSets, loc.Providers)
				}
			}
		}
		victims, runErr = pickVictims(dep.Placement.Fleet(), opts.killProviders, pageSets)
		if runErr != nil {
			return
		}

		// Healthy baseline.
		if res.healthy, runErr = readAll("X3-healthy"); runErr != nil {
			return
		}

		// Degraded phase: the victims die mid-read.
		wg = tb.Env.NewWaitGroup()
		wg.Go(func() {
			tb.Env.Sleep(opts.killDelay)
			for _, v := range victims {
				dep.Provider(v).SetDown(true)
			}
		})
		var degErr error
		wg.Go(func() { res.degraded, degErr = readAll("X3-degraded") })
		wg.Wait()
		if degErr != nil {
			runErr = degErr
			return
		}

		// Repair: restore full replication, measuring virtual time.
		t0 := tb.Env.Now()
		st, err := dep.Rebalance.SweepOnce()
		res.repair = st
		if err != nil {
			runErr = err
			return
		}
		res.repairDuration = tb.Env.Now() - t0
		if res.repair.PagesLost > 0 {
			runErr = fmt.Errorf("bench: %d pages lost all replicas", res.repair.PagesLost)
			return
		}

		// Verify: every page of every blob is back at full replication,
		// counting the copies live providers' stores actually hold.
		verifier := dep.NewClient(0)
		for _, blob := range blobs {
			vb, err := verifier.OpenBlob(blob)
			if err != nil {
				runErr = err
				return
			}
			locs, err := vb.Locations(0, opts.bytesPerClient)
			if err != nil {
				runErr = err
				return
			}
			for _, loc := range locs {
				live := 0
				for _, pr := range dep.ProviderList() {
					if !pr.IsDown() && pr.Store().Has(loc.Key()) {
						live++
					}
				}
				if live < opts.storage.replication {
					runErr = fmt.Errorf("bench: blob %d page %d has %d live replicas after repair, want %d",
						blob, loc.Page, live, opts.storage.replication)
					return
				}
			}
		}
	})
	if err == nil {
		err = runErr
	}
	return res, err
}
