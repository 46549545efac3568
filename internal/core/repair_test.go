package core

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// liveReplicas counts how many of a page's recorded providers are
// currently serving.
func liveReplicas(d *Deployment, loc PageLoc) int {
	n := 0
	for _, p := range loc.Providers {
		if pr := d.Provider(p); pr != nil && !pr.IsDown() {
			n++
		}
	}
	return n
}

// TestRepairBlobRestoresReplication: after a provider dies, RepairBlob
// brings every page of the latest snapshot back to the deployment's
// replication factor, the rewritten leaves drop the dead provider, and
// the blob then survives losing another replica.
func TestRepairBlobRestoresReplication(t *testing.T) {
	env := cluster.NewLocal(10, 5)
	d, err := NewDeployment(env, Options{
		PageSize:      64,
		Replication:   2,
		ProviderNodes: []cluster.NodeID{1, 2, 3, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	c := d.NewClient(0)
	blob, _ := c.CreateBlob(0)
	data := bytes.Repeat([]byte("replica-repair-loop!"), 32) // 10 pages
	if _, err := blob.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}

	d.Provider(2).SetDown(true)
	st, err := d.Rebalance.repairBlob(blob.ID(), LatestVersion)
	if err != nil {
		t.Fatal(err)
	}
	if st.PagesDegraded == 0 || st.ReplicasAdded != st.PagesDegraded {
		t.Fatalf("repair stats %+v: want every degraded page to gain exactly one replica", st)
	}
	if st.PagesLost != 0 {
		t.Fatalf("repair reported %d lost pages", st.PagesLost)
	}

	// A fresh tree walk sees every page at full live replication, with
	// the dead provider dropped from the leaves.
	locs, err := openB(t, d.NewClient(5), blob.ID()).Locations(0, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if len(locs) == 0 {
		t.Fatal("no page locations")
	}
	for _, loc := range locs {
		if got := liveReplicas(d, loc); got != 2 {
			t.Fatalf("page %d has %d live replicas after repair, want 2 (set %v)", loc.Page, got, loc.Providers)
		}
		for _, p := range loc.Providers {
			if p == 2 {
				t.Fatalf("page %d still lists the dead provider: %v", loc.Page, loc.Providers)
			}
		}
	}

	// Full replication means the blob survives losing one more replica
	// (read through a fresh client: repaired leaves, no stale cache).
	d.Provider(1).SetDown(true)
	buf := make([]byte, len(data))
	if _, err := openB(t, d.NewClient(5), blob.ID()).ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("content mismatch after post-repair failure")
	}

	// A second repair pass heals the second failure too.
	if _, err := d.Rebalance.repairBlob(blob.ID(), LatestVersion); err != nil {
		t.Fatal(err)
	}
	locs, err = openB(t, d.NewClient(6), blob.ID()).Locations(0, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	for _, loc := range locs {
		if got := liveReplicas(d, loc); got != 2 {
			t.Fatalf("page %d has %d live replicas after second repair, want 2", loc.Page, got)
		}
	}
}

// TestFailedLeafRewriteKeepsOldCopies: a pass that migrates pages
// onto a new provider but cannot store the rewritten leaves (every
// metadata server down) must not drop the old copies, which the
// unchanged leaves still name. Once the servers are back, a fresh
// client reads every page.
func TestFailedLeafRewriteKeepsOldCopies(t *testing.T) {
	env := cluster.NewLocal(10, 5)
	d, err := NewDeployment(env, Options{PageSize: 64, ProviderNodes: []cluster.NodeID{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	blob, _ := d.NewClient(0).CreateBlob(0)
	data := bytes.Repeat([]byte("leaf-rewrite-fails!!"), 64) // 20 pages
	if _, err := blob.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	// A pass that changes nothing warms the rebalancer's metadata
	// cache, so the next pass reaches its leaf rewrite.
	if _, err := d.Rebalance.repairBlob(blob.ID(), LatestVersion); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddProvider(4); err != nil {
		t.Fatal(err)
	}
	setMetaDown := func(down bool) {
		for _, n := range d.Opts.MetaNodes {
			d.Meta.Server(n).SetDown(down)
		}
	}
	setMetaDown(true)
	st, err := d.Rebalance.repairBlob(blob.ID(), LatestVersion)
	if err == nil || st.ReplicasAdded == 0 {
		t.Fatalf("pass with the metadata tier down: %+v, %v; want copies added and a failed rewrite", st, err)
	}
	if st.ReplicasDropped != 0 {
		t.Fatalf("pass dropped %d copies whose leaves were never rewritten", st.ReplicasDropped)
	}
	setMetaDown(false)
	buf := make([]byte, len(data))
	if _, err := openB(t, d.NewClient(5), blob.ID()).ReadAt(buf, 0); err != nil || !bytes.Equal(buf, data) {
		t.Fatalf("read after the failed pass: %v", err)
	}
}

// TestRepairClampsToSurvivingFleet: when fewer live providers remain
// than the replication factor, repair settles for what the fleet can
// hold instead of erroring, and a page with no live replica at all is
// reported lost, not fatal.
func TestRepairClampsToSurvivingFleet(t *testing.T) {
	env := cluster.NewLocal(8, 4)
	d, err := NewDeployment(env, Options{
		PageSize:      64,
		Replication:   2,
		ProviderNodes: []cluster.NodeID{1, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	c := d.NewClient(0)
	blob, _ := c.CreateBlob(0)
	data := bytes.Repeat([]byte{0x5A}, 256)
	if _, err := blob.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}

	// One survivor: target clamps to 1, nothing to copy, no error.
	d.Provider(2).SetDown(true)
	st, err := d.Rebalance.repairBlob(blob.ID(), LatestVersion)
	if err != nil {
		t.Fatal(err)
	}
	if st.ReplicasAdded != 0 || st.PagesLost != 0 {
		t.Fatalf("clamped repair stats %+v: want no copies and no losses", st)
	}

	// The clamped pass must not rewrite leaves: provider 2's copies
	// are recoverable, and if it comes back while provider 1 dies the
	// data must still be readable through it.
	d.Provider(2).SetDown(false)
	d.Provider(1).SetDown(true)
	buf := make([]byte, len(data))
	if _, err := openB(t, d.NewClient(3), blob.ID()).ReadAt(buf, 0); err != nil {
		t.Fatalf("read through the recovered provider failed: %v", err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("content mismatch reading through the recovered provider")
	}
	// No survivors: every page is reported lost, still no error.
	d.Provider(1).SetDown(true)
	d.Provider(2).SetDown(true)
	st, err = d.Rebalance.repairBlob(blob.ID(), LatestVersion)
	if err != nil {
		t.Fatal(err)
	}
	if st.PagesLost != st.PagesScanned || st.PagesScanned == 0 {
		t.Fatalf("repair with no survivors: stats %+v, want every scanned page lost", st)
	}
}

// TestRepairSweepBackground: with PlacementInterval set, the background
// sweep restores replication without anyone calling RepairBlob.
func TestRepairSweepBackground(t *testing.T) {
	env := cluster.NewLocal(10, 5)
	d, err := NewDeployment(env, Options{
		PageSize:          64,
		Replication:       2,
		ProviderNodes:     []cluster.NodeID{1, 2, 3, 4},
		PlacementInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	c := d.NewClient(0)
	blob, _ := c.CreateBlob(0)
	data := bytes.Repeat([]byte{0xC3}, 640)
	if _, err := blob.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	d.Provider(3).SetDown(true)

	deadline := time.Now().Add(2 * time.Second)
	for {
		healthy := true
		locs, err := openB(t, d.NewClient(5), blob.ID()).Locations(0, int64(len(data)))
		if err != nil {
			t.Fatal(err)
		}
		for _, loc := range locs {
			if liveReplicas(d, loc) < 2 {
				healthy = false
				break
			}
		}
		if healthy {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("background sweep did not restore replication within 2s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestConcurrentRepairPassesSim: two RepairBlob calls racing in the
// simulator must serialize without wedging the engine. A pass blocks
// in virtual time (page copies charge RTT/Scatter), and a goroutine
// parked on a real sync.Mutex still counts as runnable to the engine;
// when passes were serialized by a plain mutex, the second caller
// parked on it while the holder slept in virtual time, so Engine.Run
// waited for quiescence that never came and the simulation hung. The
// Signal-based pass latch (acquirePass/releasePass) parks contenders
// in virtual time instead; the real-time watchdog here catches any
// regression to the mutex shape.
func TestConcurrentRepairPassesSim(t *testing.T) {
	eng := sim.NewEngine()
	net := simnet.New(eng, simnet.Grid5000(12))
	env := cluster.NewSim(net)
	provs := make([]cluster.NodeID, 11)
	for i := range provs {
		provs[i] = cluster.NodeID(i + 1)
	}
	d, err := NewDeployment(env, Options{
		PageSize:      64 << 10,
		Replication:   2,
		ProviderNodes: provs,
	})
	if err != nil {
		t.Fatal(err)
	}
	var stats [2]RepairStats
	eng.Go(func() {
		blob, err := d.NewClient(0).CreateBlob(0)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := blob.WriteAt(nil, 0, Synthetic(4<<20)); err != nil {
			t.Error(err)
			return
		}
		d.Provider(3).SetDown(true)
		wg := env.NewWaitGroup()
		for i := range stats {
			wg.Go(func() {
				st, err := d.Rebalance.repairBlob(blob.ID(), LatestVersion)
				if err != nil {
					t.Error(err)
					return
				}
				stats[i] = st
			})
		}
		wg.Wait()
	})
	done := make(chan error, 1)
	go func() { done <- eng.Run() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("engine wedged: concurrent repair passes deadlocked the simulation")
	}
	if stats[0].PagesScanned == 0 && stats[1].PagesScanned == 0 {
		t.Fatal("neither pass scanned any pages")
	}
	if stats[0].ReplicasAdded+stats[1].ReplicasAdded == 0 {
		t.Fatal("no replicas restored after the provider failure")
	}
}

// TestRepairRaisesReplicationFactor: repair also serves as the
// re-replication path when a blob was written below the current
// target (e.g. the fleet grew or Replication was raised).
func TestRepairRaisesReplicationFactor(t *testing.T) {
	env := cluster.NewLocal(10, 5)
	d, err := NewDeployment(env, Options{
		PageSize:      64,
		Replication:   1,
		ProviderNodes: []cluster.NodeID{1, 2, 3, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	c := d.NewClient(0)
	blob, _ := c.CreateBlob(0)
	data := bytes.Repeat([]byte{0x77}, 320)
	if _, err := blob.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}

	d.Opts.Replication = 3
	st, err := d.Rebalance.repairBlob(blob.ID(), LatestVersion)
	if err != nil {
		t.Fatal(err)
	}
	if st.ReplicasAdded != 2*st.PagesScanned {
		t.Fatalf("raising 1->3 replicas: stats %+v, want 2 new copies per page", st)
	}
	locs, err := openB(t, d.NewClient(5), blob.ID()).Locations(0, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	for _, loc := range locs {
		if got := liveReplicas(d, loc); got != 3 {
			t.Fatalf("page %d has %d live replicas, want 3", loc.Page, got)
		}
	}
}
