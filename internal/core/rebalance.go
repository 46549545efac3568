// rebalance.go drives the unified placement loop: the maintenance
// subsystem that keeps every page where the placement authority says it
// should be. Its two historical halves — repair (restore the
// replication factor after a provider death) and rebalance (migrate
// pages toward the ring's preferred owners after a join or drain) —
// are two outcomes of the same evaluation: placement.Manager.Evaluate
// compares a page's current holders against the membership's preferred
// owners, and the Rebalancer acts on the decision by copying pages onto
// the nodes that should hold them and dropping copies that migrated
// away.
//
// The loop never writes metadata. A leaf keeps the holders named at
// write time for ever, so a pass learns where each page actually is by
// asking the serving providers' stores, and a reader that finds no copy
// on its leaf's holders probes the serving members (gatherPages). A
// copy on a node outside the preferred owners is dropped only once every
// preferred owner holds one, so at every instant some serving member
// holds each page that had a serving copy.

package core

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/placement"
)

// RepairStats summarizes one placement pass.
type RepairStats struct {
	// PagesScanned counts metadata leaves examined (holes excluded).
	PagesScanned int
	// PagesDegraded counts pages held by fewer Up providers than the
	// replication target (clamped to the Up fleet).
	PagesDegraded int
	// PagesLost counts pages no serving provider holds; they cannot be
	// repaired (a Down holder's copy may come back).
	PagesLost int
	// PagesMigrated counts pages whose copy on a node outside the
	// preferred owners was dropped once every preferred owner held one.
	PagesMigrated int
	// ReplicasAdded counts new page copies created.
	ReplicasAdded int
	// ReplicasDropped counts copies deleted from providers that held
	// them.
	ReplicasDropped int
	// BytesCopied is the payload moved onto new providers.
	BytesCopied int64
}

// Add accumulates another pass's stats.
func (s *RepairStats) Add(o RepairStats) {
	s.PagesScanned += o.PagesScanned
	s.PagesDegraded += o.PagesDegraded
	s.PagesLost += o.PagesLost
	s.PagesMigrated += o.PagesMigrated
	s.ReplicasAdded += o.ReplicasAdded
	s.ReplicasDropped += o.ReplicasDropped
	s.BytesCopied += o.BytesCopied
}

// Rebalancer runs the placement evaluation loop for a deployment. One
// Rebalancer serves a whole deployment; it is safe for concurrent use.
type Rebalancer struct {
	d  *Deployment
	cl *Client

	mu sync.Mutex
	// passBusy serializes passes (the background sweep and on-demand
	// repairBlob calls share one client and would otherwise race to
	// copy the same pages). It is an engine-visible latch, not a
	// mutex held across the pass: a pass blocks in virtual time
	// (Env.RTT/Scatter inside copyTo), and a process parked on a real
	// sync.Mutex keeps the sim engine's baton, so a second repairBlob
	// waiting on a mutex while the holder sleeps in virtual time would
	// wedge Engine.Run forever: Run never regains control. Contenders
	// instead park on a Signal (passWait) and are woken by
	// releasePass — blocking the engine can see and schedule around.
	passBusy  bool
	passWait  []cluster.Signal
	stopped   bool
	lastSweep RepairStats
	lastErr   error
}

// acquirePass claims the single placement-pass slot, parking in
// virtual time (never on a real mutex) while another pass runs. It
// fails once the rebalancer is stopped.
func (r *Rebalancer) acquirePass() error {
	r.mu.Lock()
	for {
		if r.stopped {
			r.mu.Unlock()
			return fmt.Errorf("core: rebalancer stopped")
		}
		if !r.passBusy {
			r.passBusy = true
			r.mu.Unlock()
			return nil
		}
		sig := r.d.Env.NewSignal()
		r.passWait = append(r.passWait, sig)
		r.mu.Unlock()
		sig.Wait()
		r.mu.Lock()
	}
}

// releasePass frees the pass slot and wakes every parked contender;
// they re-race for the slot under r.mu.
func (r *Rebalancer) releasePass() {
	r.mu.Lock()
	r.passBusy = false
	waiters := r.passWait
	r.passWait = nil
	r.mu.Unlock()
	for _, w := range waiters {
		w.Fire()
	}
}

// newRebalancer creates the deployment's rebalancer, hosted on node
// (the version-manager node, where a production deployment would run
// its maintenance daemon).
func newRebalancer(d *Deployment, node cluster.NodeID) *Rebalancer {
	return &Rebalancer{d: d, cl: d.NewClient(node)}
}

// repairBlob evaluates every page of version v of a blob
// (LatestVersion for the newest snapshot) against the current
// membership and acts on the decisions: degraded pages gain copies on
// their preferred owners, and misplaced pages migrate there. A page
// with no surviving copy is counted in PagesLost, not treated as a
// fatal error, so one dead page does not stop the rest of the blob from
// being processed.
func (r *Rebalancer) repairBlob(blob BlobID, v Version) (RepairStats, error) {
	var st RepairStats
	if err := r.acquirePass(); err != nil {
		return st, err
	}
	defer r.releasePass()
	// Evaluate against fresh health: a provider that died since the
	// last heartbeat must not be chosen as a copy source or target.
	r.d.Placement.CheckNow()
	rec, ok, err := r.cl.resolveVersion(blob, v)
	if err != nil {
		return st, err
	}
	if !ok {
		return st, nil // empty blob: nothing to evaluate
	}
	s := defaultSettings()
	s.version = rec.Version
	locs, err := r.cl.locations(s, blob, 0, rec.SizeAfter)
	if err != nil {
		return st, err
	}
	// Holes are zeros and need no replicas.
	pages := slices.DeleteFunc(locs, func(l PageLoc) bool { return len(l.Providers) == 0 })
	keys := make([]string, len(pages))
	for i, loc := range pages {
		keys[i] = loc.Key()
	}
	held, asked := r.holders(keys)

	target := r.d.Opts.Replication
	for i, loc := range pages {
		st.PagesScanned++
		// A leaf holder nobody could ask (Down or gone) still counts as
		// one: its copy may come back.
		current := held[i]
		for _, n := range loc.Providers {
			if !slices.Contains(asked, n) {
				current = append(current, n)
			}
		}
		dec := r.d.Placement.Evaluate(keys[i], current, target)
		if dec.Lost {
			st.PagesLost++
			continue
		}
		if dec.Degraded {
			st.PagesDegraded++
		}
		added, copied, err := r.copyTo(keys[i], dec.Live, dec.Add)
		if err != nil {
			return st, err
		}
		st.ReplicasAdded += len(added)
		st.BytesCopied += copied
		// A misplaced copy goes only once every preferred owner, at the
		// full target, holds one.
		if dec.Misplaced && len(dec.Desired) == target && len(added) == len(dec.Add) {
			if n := r.dropExtras(keys[i], dec.Live, dec.Desired); n > 0 {
				st.PagesMigrated++
				st.ReplicasDropped += n
			}
		}
	}
	return st, nil
}

// holders asks every serving provider (Up or Draining) which of keys
// its store holds, as one fan-out charged a round trip to the farthest
// provider asked. It returns each key's holders and the nodes asked.
func (r *Rebalancer) holders(keys []string) (held [][]cluster.NodeID, asked []cluster.NodeID) {
	if len(keys) == 0 {
		return nil, nil
	}
	held = make([][]cluster.NodeID, len(keys))
	for _, m := range r.d.Placement.Members() {
		pr := r.d.Provider(m.Node)
		if m.Health == placement.Down || pr == nil || pr.IsDown() {
			continue
		}
		asked = append(asked, m.Node)
		for i, k := range keys {
			if pr.store.Has(k) {
				held[i] = append(held[i], m.Node)
			}
		}
	}
	if len(asked) > 0 {
		r.d.Env.RTT(r.cl.node, cluster.Farthest(r.d.Env, r.cl.node, asked))
	}
	return held, asked
}

// copyTo replicates one page from a surviving holder onto each target
// node, with failover across the sources. It returns the nodes that
// received a copy and the bytes moved. Targets that fail between the
// decision and the put are skipped (the next pass retries).
func (r *Rebalancer) copyTo(key string, sources, targets []cluster.NodeID) ([]cluster.NodeID, int64, error) {
	if len(targets) == 0 {
		return nil, 0, nil
	}
	var fetch pageFetch
	var src cluster.NodeID
	fetchErr := error(nil)
	found := false
	for _, prov := range sources {
		pr := r.d.Provider(prov)
		if pr == nil {
			continue
		}
		f, err := pr.getPageInto([]byte(key), nil)
		if err != nil {
			fetchErr = err
			continue
		}
		fetch, src, found = f, prov, true
		break
	}
	if !found {
		if fetchErr == nil {
			fetchErr = ErrAllReplicasDown
		}
		return nil, 0, fmt.Errorf("core: placement copy of page %q: %w", key, fetchErr)
	}

	var added []cluster.NodeID
	var copied int64
	for _, dst := range targets {
		pr := r.d.Provider(dst)
		if pr == nil {
			continue
		}
		throttled := pr.pastCap(fetch.size)
		if err := pr.putPage(key, fetch.data, fetch.size); err != nil {
			continue // destination died between pick and put: next pass retries
		}
		// Charge the provider-to-provider copy, its disk share included.
		r.d.Env.RTT(src, dst)
		r.d.Env.Scatter(src, []cluster.NodeID{dst}, fetch.size, float64(throttled)/float64(fetch.size))
		added = append(added, dst)
		copied += fetch.size
	}
	return added, copied, nil
}

// dropExtras deletes the page's copies on the holders outside keep
// (the migration's second half) and returns how many it deleted.
// holders are the nodes the pass found holding the page.
func (r *Rebalancer) dropExtras(key string, holders, keep []cluster.NodeID) int {
	dropped := 0
	for _, n := range holders {
		if slices.Contains(keep, n) {
			continue
		}
		if pr := r.d.Provider(n); pr != nil && pr.deletePage(key) == nil {
			dropped++
		}
	}
	return dropped
}

// sweepLoop periodically evaluates the latest snapshot of every blob.
// It runs as an environment daemon when Options.PlacementInterval > 0.
// Each pass's outcome is recorded for LastSweep — a failing background
// sweep must be observable, not silent.
func (r *Rebalancer) sweepLoop(interval time.Duration) {
	for {
		r.d.Env.Sleep(interval)
		r.mu.Lock()
		stopped := r.stopped
		r.mu.Unlock()
		if stopped {
			return
		}
		st, err := r.SweepOnce()
		r.mu.Lock()
		r.lastSweep, r.lastErr = st, err
		r.mu.Unlock()
	}
}

// LastSweep reports the most recent background sweep's stats and
// error (zero values before the first sweep completes).
func (r *Rebalancer) LastSweep() (RepairStats, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastSweep, r.lastErr
}

// SweepOnce evaluates the latest snapshot of every blob in the
// deployment, aggregating the stats. The work list is the version
// router's merged cross-shard blob enumeration, so a multi-shard tier
// is swept completely — every shard's blobs, in ascending id order.
// Per-blob errors abort the sweep; lost pages do not (they are
// reported in the stats).
func (r *Rebalancer) SweepOnce() (RepairStats, error) {
	var st RepairStats
	for _, blob := range r.d.VM.blobIDs(r.cl.node) {
		s, err := r.repairBlob(blob, LatestVersion)
		st.Add(s)
		if err != nil {
			return st, err
		}
	}
	return st, nil
}

// stop terminates the background sweep: no new pass starts once the
// flag is set (acquirePass checks it), parked contenders are woken to
// observe it, and the daemon exits at its next tick. stop deliberately
// does NOT join an in-flight pass: on a simulated Env the closer would
// block a real mutex on a daemon parked on virtual time — a deadlock
// the engine cannot break — while letting the pass race teardown is
// benign (operations against stopping providers return errors, which
// the sweep records in lastErr, and page puts land harmlessly in RAM).
func (r *Rebalancer) stop() {
	r.mu.Lock()
	r.stopped = true
	waiters := r.passWait
	r.passWait = nil
	r.mu.Unlock()
	for _, w := range waiters {
		w.Fire()
	}
}
