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
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// churnOpts parameterizes the X6 membership-churn scenario.
type churnOpts struct {
	// writers is the number of concurrent appenders, one blob each
	// (default 4).
	writers int
	// providers is the initial provider fleet size (default 10).
	providers int
	// cycles is the number of churn cycles; each kills one provider,
	// removes it, and joins a fresh spare node (default 3).
	cycles int
	// blockBytes is the synthetic payload of each append (default 1 MB).
	blockBytes int64
	// replication is the page replica count (min and default 2: the
	// scenario's liveness claim needs a survivor per page).
	replication int
	// memCapacity bounds each provider's RAM store (default 512 MB).
	memCapacity int64
}

func (o *churnOpts) fillDefaults() {
	if o.writers <= 0 {
		o.writers = 4
	}
	if o.providers <= 0 {
		o.providers = 10
	}
	if o.cycles <= 0 {
		o.cycles = 3
	}
	if o.blockBytes <= 0 {
		o.blockBytes = 1 * MB
	}
	if o.replication < 2 {
		o.replication = 2
	}
	if o.memCapacity == 0 {
		o.memCapacity = 512 * MB
	}
}

// churnResult is the outcome of one churn run.
type churnResult struct {
	// appends counts blocks successfully published across all writers;
	// Retries counts transient write failures (a placement raced a
	// death) that succeeded on retry.
	appends int
	retries int
	// cycles echoes the churn cycles executed; Epoch is the final
	// membership epoch (every death, removal, and join bumps it).
	cycles int
	epoch  uint64
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

// runChurn executes the scenario: Writers appenders run continuously
// while Cycles churn cycles each kill a provider (the heartbeat
// checker marks it down), restore replication with a placement pass,
// remove the dead node from the membership, and join a fresh spare.
// No read may ever fail with ErrAllReplicasDown. After the churn
// stops, placement passes must converge every page of every blob onto
// its preferred owners at full replication.
func runChurn(opts churnOpts) (churnResult, error) {
	opts.fillDefaults()
	// Node 0 hosts the masters, 1..Providers the initial fleet, and the
	// next Cycles nodes are the spares that join mid-run.
	total := 1 + opts.providers + opts.cycles
	eng := sim.NewEngine()
	netw := simnet.New(eng, simnet.Grid5000(total))
	env := cluster.NewSim(netw)
	fleet := make([]cluster.NodeID, opts.providers)
	for i := range fleet {
		fleet[i] = cluster.NodeID(i + 1)
	}
	dep, err := core.NewDeployment(env, core.Options{
		PageSize:      256 * KB,
		Replication:   opts.replication,
		ProviderNodes: fleet,
		// Pin the metadata DHT to the initial nodes: the DHT tier is
		// separate from the provider fleet and does not churn.
		MetaNodes: fleet,
		Provider:  core.ProviderConfig{MemCapacity: opts.memCapacity},
		// The heartbeat daemon runs on virtual time and flips dead
		// members to Down, which bumps the epoch and re-routes clients.
		HeartbeatInterval: 10 * time.Millisecond,
	})
	if err != nil {
		return churnResult{}, err
	}

	var res churnResult
	res.cycles = opts.cycles
	var runErr firstError
	fail := runErr.set

	var stop atomic.Bool // controller -> writers
	blobs := make([]core.BlobID, opts.writers)
	appends := make([]int, opts.writers)
	retries := make([]int, opts.writers)

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
				_, off, werr = b.Append(core.SyntheticBlocks(opts.blockBytes))
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
			if _, rerr := b.ReadAt(nil, off, core.Synthetic(opts.blockBytes)); rerr != nil {
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
		for cycle := 0; cycle < opts.cycles && runErr.get() == nil; cycle++ {
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
			spare := cluster.NodeID(opts.providers + 1 + cycle)
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
			ok, err := allOnPreferredOwners(dep, blobs, opts.replication)
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
			node := cluster.NodeID(1 + i%opts.providers)
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

// allOnPreferredOwners reports whether every page of every blob's
// latest snapshot sits on exactly its ring-preferred owners at the
// replication target.
func allOnPreferredOwners(dep *core.Deployment, blobs []core.BlobID, target int) (bool, error) {
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
			if len(loc.Providers) != len(want) {
				return false, nil
			}
			have := make(map[cluster.NodeID]bool, len(loc.Providers))
			for _, n := range loc.Providers {
				have[n] = true
			}
			for _, n := range want {
				if !have[n] {
					return false, nil
				}
			}
		}
	}
	return true, nil
}
