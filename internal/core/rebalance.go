// rebalance.go drives the unified placement loop: the maintenance
// subsystem that keeps every page where the placement authority says it
// should be. Its two historical halves — repair (restore the
// replication factor after a provider death) and rebalance (migrate
// pages toward the ring's preferred owners after a join or drain) —
// are two outcomes of the same evaluation: placement.Manager.Evaluate
// compares a page's current holders against the membership's preferred
// owners, and the Rebalancer acts on the decision by copying pages onto
// the nodes that should hold them, rewriting the metadata leaves, and
// dropping copies that migrated away.
//
// Leaf rewrites are the one deliberate exception to the "tree nodes
// are immutable" rule. They are safe because a leaf rewrite only
// changes the provider set, never the page contents or the tree
// shape: a client holding the stale leaf still reads correct bytes
// through any surviving old replica (a copy dropped by migration just
// looks like one more failed replica and fails over), and a fresh tree
// walk sees the new set.

package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/cluster"
)

// RepairStats summarizes one placement pass.
type RepairStats struct {
	// PagesScanned counts metadata leaves examined (holes excluded).
	PagesScanned int
	// PagesDegraded counts pages found below the replication target.
	PagesDegraded int
	// PagesLost counts pages with no live replica at all; they cannot
	// be repaired and stay in the leaf untouched (their replicas may
	// come back).
	PagesLost int
	// PagesMigrated counts pages whose replica set was realigned to
	// the preferred owners (a reachable copy sat on a wrong node).
	PagesMigrated int
	// ReplicasAdded counts new page copies created.
	ReplicasAdded int
	// ReplicasDropped counts reachable copies deleted after their page
	// was fully re-established on its preferred owners.
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
	// (Env.RTT/Scatter inside copyTo), and a goroutine parked on a
	// real sync.Mutex still counts as runnable to the sim engine, so
	// a second repairBlob waiting on a mutex while the holder sleeps
	// in virtual time would wedge Engine.Run forever. Contenders
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
// their preferred owners, misplaced pages migrate there, and fully
// realigned leaves drop the stale holders. A page with no surviving
// replica is counted in PagesLost, not treated as a fatal error, so
// one dead page does not stop the rest of the blob from being
// processed.
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

	target := r.d.Opts.Replication
	updates := make(map[string][]byte)
	// A migrated page's old copies are dropped only once its rewritten
	// leaf is stored: until then the leaf still names them.
	type drop struct {
		key       string
		old, kept []cluster.NodeID
	}
	var drops []drop
	for _, loc := range locs {
		if len(loc.Providers) == 0 {
			continue // hole: zeros need no replicas
		}
		st.PagesScanned++
		key := loc.Key()
		dec := r.d.Placement.Evaluate(key, loc.Providers, target)
		if dec.Lost {
			st.PagesLost++
			continue
		}
		if dec.Degraded {
			st.PagesDegraded++
		}
		if len(dec.Add) == 0 && !dec.Misplaced {
			continue // already where it should be
		}

		added, copied, err := r.copyTo(key, dec.Live, dec.Add)
		if err != nil {
			return st, err
		}
		st.ReplicasAdded += len(added)
		st.BytesCopied += copied

		newSet, dropped, changed := r.newLeafSet(loc, dec.Desired, dec.Live, added, target, key)
		if !changed {
			continue
		}
		if dropped {
			st.PagesMigrated++
		}
		leafKey := nodeKey{blob: loc.blob, version: loc.Version, pages: pageRange{off: loc.Page, count: 1}}.String()
		updates[leafKey] = encodeLeaf(leafNode{providers: newSet})
		drops = append(drops, drop{key, loc.Providers, newSet})
	}
	if len(updates) > 0 {
		if err := r.cl.meta.batchPut(updates); err != nil {
			return st, fmt.Errorf("core: placement pass over blob %d: leaf rewrite: %w", blob, err)
		}
	}
	for _, d := range drops {
		st.ReplicasDropped += r.dropExtras(d.key, d.old, d.kept)
	}
	return st, nil
}

// newLeafSet decides the rewritten replica set for one page after
// copies were added. When every desired owner holds a copy and the
// desired set is at the full configured target, the leaf becomes
// exactly the preferred owners — stale holders (dead nodes, migrated-
// away copies) are dropped. Below that, the rule stays conservative:
// surviving replicas first, new copies appended, and dead holders kept
// listed while the page is under the full target (their copies may
// come back; dropping them would turn a transient outage into data
// loss).
func (r *Rebalancer) newLeafSet(loc PageLoc, desired, live, added []cluster.NodeID, target int, key string) (newSet []cluster.NodeID, dropped, changed bool) {
	holds := make(map[cluster.NodeID]bool, len(loc.Providers)+len(added))
	for _, n := range live {
		holds[n] = true
	}
	for _, n := range added {
		holds[n] = true
	}
	complete := len(desired) == target
	for _, n := range desired {
		if !holds[n] {
			complete = false
			break
		}
	}
	if complete {
		for _, n := range loc.Providers {
			found := false
			for _, m := range desired {
				if m == n {
					found = true
					break
				}
			}
			if !found {
				dropped = true
				break
			}
		}
		return desired, dropped, dropped || len(added) > 0
	}
	if len(added) == 0 {
		return nil, false, false // nothing gained: keep the old leaf untouched
	}
	newSet = append(append([]cluster.NodeID(nil), live...), added...)
	if len(newSet) < target {
		for _, p := range loc.Providers {
			if pr := r.d.Provider(p); pr == nil || pr.isDown() {
				newSet = append(newSet, p)
			}
		}
	}
	return newSet, false, true
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
		items, err := pr.getPages([]string{key})
		if err != nil {
			fetchErr = err
			continue
		}
		fetch, src, found = items[0], prov, true
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
		if err := pr.putPage(key, fetch.data, fetch.size); err != nil {
			continue // destination died between pick and put: next pass retries
		}
		// Charge the provider-to-provider copy.
		r.d.Env.RTT(src, dst)
		r.d.Env.Scatter(src, []cluster.NodeID{dst}, fetch.size)
		added = append(added, dst)
		copied += fetch.size
	}
	return added, copied, nil
}

// dropExtras deletes the page's copies on reachable old holders that
// are no longer in the new replica set (the migration's second half).
// Unreachable holders are left alone — their orphaned copies are
// harmless and the node may never come back anyway.
func (r *Rebalancer) dropExtras(key string, old, kept []cluster.NodeID) int {
	inKept := make(map[cluster.NodeID]bool, len(kept))
	for _, n := range kept {
		inKept[n] = true
	}
	dropped := 0
	for _, n := range old {
		if inKept[n] {
			continue
		}
		if pr := r.d.Provider(n); pr != nil && !pr.isDown() {
			if pr.deletePage(key) == nil {
				dropped++
			}
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
