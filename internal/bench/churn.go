// churn.go runs the membership-churn scenario (X6): writers keep
// appending at replication >= 2 while the provider fleet churns —
// nodes die, are removed, and fresh nodes join — and the unified
// placement loop keeps every page readable throughout and converges
// the whole store back onto the ring's preferred owners once the
// churn stops. The scenario measures the number that matters for
// elasticity: time-to-rebalance after the fleet stabilizes.

package bench

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/placement"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// X6's shape: one value each.
const (
	// x6Writers is the number of concurrent appenders, one blob each.
	x6Writers = 4
	// x6Providers is the initial provider fleet size.
	x6Providers = 10
	// x6Cycles is the number of churn cycles; each kills one provider,
	// removes it, and joins a fresh spare node.
	x6Cycles = 3
	// x6BlockBytes is the synthetic payload of each append.
	x6BlockBytes = 1 * MB
	// x6MemCapacity bounds each provider's RAM store.
	x6MemCapacity = 512 * MB
)

// churnResult is the outcome of one churn run.
type churnResult struct {
	// appends counts blocks successfully published across all writers;
	// Retries counts transient write failures (a placement raced a
	// death) that succeeded on retry.
	appends int
	retries int
	// epoch is the final membership epoch (every death, removal, and
	// join bumps it).
	epoch uint64
	// rebalanceDuration is the virtual time from the end of churn until
	// every page sat on its preferred owners at full replication.
	rebalanceDuration time.Duration
	// sweeps aggregates every placement pass of the run.
	sweeps core.RepairStats
}

// maxWriteRetries bounds a writer's retry loop for one block: churn
// makes individual placements fail transiently, but a block that
// cannot land after this many attempts means the fleet is wedged.
const maxWriteRetries = 50

// runChurn executes the scenario: x6Writers appenders run continuously
// while x6Cycles churn cycles each kill a provider (the heartbeat
// checker marks it down), restore replication with a placement pass,
// remove the dead node from the membership, and join a fresh spare.
// No read may ever fail with ErrAllReplicasDown. After the churn
// stops, placement passes must converge every page of every blob onto
// its preferred owners at full replication. replication is the page
// replica count, at least 2: the scenario's liveness claim needs a
// survivor per page.
func runChurn(replication int) (churnResult, error) {
	replication = max(replication, 2)
	// Node 0 hosts the masters, 1..x6Providers the initial fleet, and
	// the next x6Cycles nodes are the spares that join mid-run.
	total := 1 + x6Providers + x6Cycles
	eng := sim.NewEngine()
	netw := simnet.New(eng, simnet.Grid5000(total))
	env := cluster.NewSim(netw)
	fleet := make([]cluster.NodeID, x6Providers)
	for i := range fleet {
		fleet[i] = cluster.NodeID(i + 1)
	}
	dep, err := core.NewDeployment(env, core.Options{
		PageSize:      256 * KB,
		Replication:   replication,
		ProviderNodes: fleet,
		// Pin the metadata DHT to the initial nodes: the DHT tier is
		// separate from the provider fleet and does not churn.
		MetaNodes: fleet,
		Provider:  core.ProviderConfig{MemCapacity: x6MemCapacity},
		// The heartbeat daemon runs on virtual time and flips dead
		// members to Down, which bumps the epoch and re-routes clients.
		HeartbeatInterval: 10 * time.Millisecond,
	})
	if err != nil {
		return churnResult{}, err
	}

	var res churnResult
	var runErr firstError
	fail := runErr.set

	var stop atomic.Bool // controller -> writers
	blobs := make([]core.BlobID, x6Writers)
	appends := make([]int, x6Writers)
	retries := make([]int, x6Writers)

	writer := func(i int, node cluster.NodeID) {
		c := dep.NewClient(node)
		b, err := c.CreateBlob(0)
		if err != nil {
			fail(err)
			return
		}
		blobs[i] = b.ID()
		for !stop.Load() && runErr.get() == nil {
			var off int64
			var werr error
			for attempt := 0; ; attempt++ {
				_, off, werr = b.Append(core.SyntheticBlocks(x6BlockBytes))
				if werr == nil {
					break
				}
				if errors.Is(werr, core.ErrAllReplicasDown) {
					fail(fmt.Errorf("bench: writer %d: append lost all replicas: %w", i, werr))
					return
				}
				if attempt == maxWriteRetries {
					fail(fmt.Errorf("bench: writer %d: append still failing after %d retries: %w", i, attempt, werr))
					return
				}
				retries[i]++
				env.Sleep(2 * time.Millisecond)
			}
			appends[i]++
			// Read the block straight back: replica failover must keep
			// every published page readable through the churn.
			if _, rerr := b.ReadAt(nil, off, core.Synthetic(x6BlockBytes)); rerr != nil {
				fail(fmt.Errorf("bench: writer %d: read-back at %d: %w", i, off, rerr))
				return
			}
			env.Sleep(5 * time.Millisecond)
		}
	}

	sweep := func() bool {
		st, err := dep.Rebalance.SweepOnce()
		res.sweeps.Add(st)
		if err != nil {
			fail(fmt.Errorf("bench: placement sweep: %w", err))
			return false
		}
		if st.PagesLost > 0 {
			fail(fmt.Errorf("bench: %d pages lost all replicas", st.PagesLost))
			return false
		}
		return true
	}

	controller := func() {
		for cycle := 0; cycle < x6Cycles && runErr.get() == nil; cycle++ {
			env.Sleep(25 * time.Millisecond) // let writers make progress
			victim := fleet[cycle%len(fleet)]
			dep.Provider(victim).SetDown(true)
			// The heartbeat checker flips the victim Down within a tick;
			// give readers a degraded window before repairing.
			env.Sleep(15 * time.Millisecond)
			if !sweep() { // repair: re-replicate off the dead node
				return
			}
			if err := dep.RemoveProvider(victim); err != nil {
				fail(err)
				return
			}
			spare := cluster.NodeID(x6Providers + 1 + cycle)
			if _, err := dep.AddProvider(spare); err != nil {
				fail(err)
				return
			}
			fleet[cycle%len(fleet)] = spare
			if !sweep() { // rebalance: migrate the spare's ring share onto it
				return
			}
		}
		stop.Store(true)
		if runErr.get() != nil {
			return
		}

		// Churn over: placement passes must converge the whole store
		// onto the preferred owners within a bounded number of sweeps.
		t0 := env.Now()
		converged := false
		for i := 0; i < 8 && runErr.get() == nil; i++ {
			if !sweep() {
				return
			}
			ok, err := allOnPreferredOwners(dep, blobs, replication)
			if err != nil {
				fail(err)
				return
			}
			if ok {
				converged = true
				break
			}
			env.Sleep(10 * time.Millisecond)
		}
		if !converged {
			fail(fmt.Errorf("bench: placement did not converge to the preferred owners after churn"))
			return
		}
		res.rebalanceDuration = env.Now() - t0
	}

	eng.Go(func() {
		wg := env.NewWaitGroup()
		for i := range blobs {
			node := cluster.NodeID(1 + i%x6Providers)
			wg.Go(func() { writer(i, node) })
		}
		wg.Go(controller)
		wg.Wait()
	})
	runErr.set(eng.Run())
	if err := runErr.get(); err != nil {
		return res, err
	}
	for i := range blobs {
		res.appends += appends[i]
		res.retries += retries[i]
		if appends[i] == 0 {
			return res, fmt.Errorf("bench: writer %d never published a block", i)
		}
	}
	res.epoch = dep.Placement.Epoch()
	return res, dep.Close()
}

// allOnPreferredOwners reports whether, among the serving providers,
// exactly each page's ring-preferred owners at the replication target
// hold it, for every page of every blob's latest snapshot. It counts
// the copies the providers' stores hold, not what the leaves name.
func allOnPreferredOwners(dep *core.Deployment, blobs []core.BlobID, target int) (bool, error) {
	var serving []*core.Provider
	for _, m := range dep.Placement.Members() {
		if pr := dep.Provider(m.Node); m.Health != placement.Down && pr != nil && !pr.IsDown() {
			serving = append(serving, pr)
		}
	}
	c := dep.NewClient(0)
	for _, id := range blobs {
		b, err := c.OpenBlob(id)
		if err != nil {
			return false, err
		}
		_, size, err := b.Latest()
		if err != nil {
			return false, err
		}
		locs, err := b.Locations(0, size)
		if err != nil {
			return false, err
		}
		for _, loc := range locs {
			if len(loc.Providers) == 0 {
				continue // hole
			}
			want := dep.Placement.PreferredOwners(loc.Key(), target)
			held := 0
			for _, pr := range serving {
				has := pr.Store().Has(loc.Key())
				if has != slices.Contains(want, pr.Node()) {
					return false, nil
				}
				if has {
					held++
				}
			}
			if held != len(want) {
				return false, nil
			}
		}
	}
	return true, nil
}
