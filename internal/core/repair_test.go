package core

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// liveCopies lists the live providers whose stores hold a page: where
// its copies actually are, whatever its leaf names.
func liveCopies(d *Deployment, loc PageLoc) []cluster.NodeID {
	var out []cluster.NodeID
	for _, p := range d.ProviderList() {
		if !p.IsDown() && p.Store().Has(loc.Key()) {
			out = append(out, p.Node())
		}
	}
	return out
}

// TestRepairBlobRestoresReplication: after a provider dies, RepairBlob
// brings every page of the latest snapshot back to the deployment's
// replication factor, on the live preferred owners, and the blob then
// survives losing another replica.
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

	// Every page's live copies sit on exactly its preferred owners, none
	// of which is the dead provider.
	locs, err := openB(t, d.NewClient(5), blob.ID()).Locations(0, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if len(locs) == 0 {
		t.Fatal("no page locations")
	}
	for _, loc := range locs {
		got, want := liveCopies(d, loc), d.Placement.PreferredOwners(loc.Key(), 2)
		slices.Sort(want)
		if !slices.Equal(got, want) || slices.Contains(got, 2) {
			t.Fatalf("page %d: live copies on %v after repair, want %v", loc.Page, got, want)
		}
	}

	// Full replication means the blob survives losing one more replica
	// (read through a fresh client, whose leaves still name the dead
	// provider).
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
	for _, loc := range locs {
		if got := liveCopies(d, loc); len(got) != 2 {
			t.Fatalf("page %d has live copies on %v after second repair, want 2", loc.Page, got)
		}
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

	// The clamped pass must not drop copies: provider 2's are
	// recoverable, and if it comes back while provider 1 dies the data
	// must still be readable through it.
	d.Provider(2).SetDown(false)
	locs, err := openB(t, d.NewClient(3), blob.ID()).Locations(0, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	for _, loc := range locs {
		if got := liveCopies(d, loc); !slices.Equal(got, []cluster.NodeID{1, 2}) {
			t.Fatalf("page %d: copies on %v after the clamped pass, want [1 2]", loc.Page, got)
		}
	}
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
			if len(liveCopies(d, loc)) < 2 {
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
// in virtual time (page copies charge RTT/Scatter), and a process
// parked on a real sync.Mutex keeps the engine's baton; when passes
// were serialized by a plain mutex, the second caller parked on it
// while the holder slept in virtual time, so Engine.Run never regained
// control and the simulation hung. The Signal-based pass latch
// (acquirePass/releasePass) parks contenders in virtual time instead;
// the real-time watchdog here catches any regression to the mutex
// shape.
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
		if got := liveCopies(d, loc); len(got) != 3 {
			t.Fatalf("page %d has live copies on %v, want 3", loc.Page, got)
		}
	}
}

// chargeEnv logs the round trips and gathers an operation charges, and
// counts the scatters to the metadata node: with every provider
// elsewhere, those are the DHT puts.
type chargeEnv struct {
	cluster.Env
	meta    cluster.NodeID
	mu      sync.Mutex
	charges []string
	puts    int
}

func (e *chargeEnv) log(s string) {
	e.mu.Lock()
	e.charges = append(e.charges, s)
	e.mu.Unlock()
}

func (e *chargeEnv) RTT(from, to cluster.NodeID) {
	e.log(fmt.Sprintf("rtt %d-%d", from, to))
	e.Env.RTT(from, to)
}

func (e *chargeEnv) Gather(to cluster.NodeID, srcs []cluster.NodeID, size int64, diskFraction float64) {
	e.log(fmt.Sprintf("gather %v->%d %dB", srcs, to, size))
	e.Env.Gather(to, srcs, size, diskFraction)
}

func (e *chargeEnv) Scatter(from cluster.NodeID, dests []cluster.NodeID, size int64) {
	if slices.Contains(dests, e.meta) {
		e.mu.Lock()
		e.puts++
		e.mu.Unlock()
	}
	e.Env.Scatter(from, dests, size)
}

// TestSweepsPutNoMetadata: the placement loop moves pages and never
// writes the metadata DHT, in a migrating sweep or a repairing one.
func TestSweepsPutNoMetadata(t *testing.T) {
	env := &chargeEnv{Env: cluster.NewLocal(12, 5), meta: 11}
	d, err := NewDeployment(env, Options{PageSize: 64, Replication: 2, ProviderNodes: []cluster.NodeID{1, 2, 3, 4}, MetaNodes: []cluster.NodeID{11}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	blob, _ := d.NewClient(0).CreateBlob(0)
	if _, err := blob.WriteAt(bytes.Repeat([]byte("put-once"), 160), 0); err != nil { // 20 pages
		t.Fatal(err)
	}
	if env.puts == 0 {
		t.Fatal("the write stored no metadata node: the counter sees nothing")
	}
	env.puts = 0
	if _, err := d.AddProvider(5); err != nil {
		t.Fatal(err)
	}
	if st, err := d.Rebalance.SweepOnce(); err != nil || st.PagesMigrated == 0 {
		t.Fatalf("migrating sweep: %+v, %v", st, err)
	}
	d.Provider(1).SetDown(true)
	if st, err := d.Rebalance.SweepOnce(); err != nil || st.PagesDegraded == 0 || st.ReplicasAdded == 0 {
		t.Fatalf("repairing sweep: %+v, %v", st, err)
	}
	if env.puts != 0 {
		t.Fatalf("sweeps stored %d batches of metadata nodes, want 0", env.puts)
	}
}

// TestMigrationsKeepEveryVersionReadable: leaves keep their write-time
// holders, so after two joins — a sweep after the first, none after the
// second — and a drain of the first joiner, many pages sit where no leaf
// names them: on a draining node, off the Up holder their leaf names.
// Both the writer's long-lived client and a fresh one read every page
// of both versions. The sweep counts only copies that existed, so one
// after a converged sweep moves and drops nothing.
func TestMigrationsKeepEveryVersionReadable(t *testing.T) {
	const ps, pages = 64, 32
	d, err := NewDeployment(cluster.NewLocal(8, 4), Options{PageSize: ps, ProviderNodes: []cluster.NodeID{1, 2, 3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	writer := d.NewClient(0)
	blob, _ := writer.CreateBlob(0)
	v1 := make([]byte, pages*ps)
	for i := range v1 {
		v1[i] = byte(i / ps)
	}
	if _, err := blob.WriteAt(v1, 0); err != nil {
		t.Fatal(err)
	}
	v2 := slices.Clone(v1)
	for i := 8 * ps; i < 24*ps; i++ {
		v2[i] ^= 0xFF
	}
	if _, err := blob.WriteAt(v2[8*ps:24*ps], 8*ps); err != nil { // v2: pages [8, 24)
		t.Fatal(err)
	}
	stored := func() (n int) {
		for _, p := range d.ProviderList() {
			n += p.Store().Stats().Entries
		}
		return n
	}

	before := stored()
	joined, err := d.AddProvider(5)
	if err != nil {
		t.Fatal(err)
	}
	st, err := d.Rebalance.SweepOnce()
	if err != nil || st.PagesMigrated == 0 || st.ReplicasAdded != st.PagesMigrated || st.ReplicasDropped != st.PagesMigrated {
		t.Fatalf("sweep after the join: %+v, %v", st, err)
	}
	if got := joined.Store().Stats().Entries; got != st.ReplicasAdded || before-(stored()-got) != st.ReplicasDropped {
		t.Fatalf("sweep %+v: the joiner holds %d pages and the others lost %d", st, got, before-(stored()-got))
	}
	again, err := d.Rebalance.SweepOnce()
	if err != nil || again != (RepairStats{PagesScanned: st.PagesScanned}) {
		t.Fatalf("sweep after a converged one: %+v, %v; want only %d pages scanned", again, err, st.PagesScanned)
	}

	if _, err := d.AddProvider(6); err != nil {
		t.Fatal(err)
	}
	if err := d.DrainProvider(5); err != nil {
		t.Fatal(err)
	}
	for _, c := range []*Client{writer, d.NewClient(7)} {
		for v, want := range [][]byte{v1, v2} {
			buf := make([]byte, len(want))
			if _, err := openB(t, c, blob.ID()).ReadAt(buf, 0, AtVersion(Version(v+1))); err != nil || !bytes.Equal(buf, want) {
				t.Fatalf("client on node %d, version %d: %v, match=%v", c.node, v+1, err, bytes.Equal(buf, want))
			}
		}
	}
}

// TestMigratedPageProbeCost: after a converged migration, a fresh
// client pays, in the sim, exactly what it paid before for a page that
// did not move, and for a page that moved exactly one membership lookup
// and one gather round more: its leaf's holder answers with nothing,
// and the first Up member along the key's ring holds it.
func TestMigratedPageProbeCost(t *testing.T) {
	const ps, pages = 64, 32
	eng := sim.NewEngine()
	env := &chargeEnv{Env: cluster.NewSim(simnet.New(eng, simnet.Grid5000(12))), meta: 11}
	d, err := NewDeployment(env, Options{PageSize: ps, ProviderNodes: []cluster.NodeID{1, 2, 3, 4}, MetaNodes: []cluster.NodeID{11}})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, pages*ps)
	for i := range data {
		data[i] = byte(i / ps)
	}
	run := func() error {
		blob, err := d.NewClient(0).CreateBlob(0)
		if err != nil {
			return err
		}
		if _, err := blob.WriteAt(data, 0); err != nil {
			return err
		}
		// read charges a fresh client on node 10 for one page.
		read := func(p int64) ([]string, error) {
			c := d.NewClient(10)
			b, err := c.OpenBlob(blob.ID())
			if err != nil {
				return nil, err
			}
			env.charges = nil
			buf := make([]byte, ps)
			if _, err := b.ReadAt(buf, p*ps); err != nil || !bytes.Equal(buf, data[p*ps:(p+1)*ps]) {
				return nil, fmt.Errorf("page %d: %v, match=%v", p, err, bytes.Equal(buf, data[p*ps:(p+1)*ps]))
			}
			return env.charges, nil
		}
		var before [pages][]string
		for p := range int64(pages) {
			if before[p], err = read(p); err != nil {
				return err
			}
		}
		if _, err := d.AddProvider(5); err != nil {
			return err
		}
		for i, want := range []bool{true, false} {
			if st, err := d.Rebalance.SweepOnce(); err != nil || (st.PagesMigrated > 0) != want {
				return fmt.Errorf("sweep %d: %+v, %v", i, st, err)
			}
		}
		locs, err := blob.Locations(0, int64(len(data)))
		if err != nil {
			return err
		}
		moved := 0
		for _, loc := range locs {
			after, err := read(loc.Page)
			if err != nil {
				return err
			}
			want := before[loc.Page]
			holder, owner := loc.Providers[0], d.Placement.PreferredOwners(loc.Key(), 1)[0]
			if holder != owner {
				moved++
				n := len(want)
				want = append(slices.Clone(want[:n-1]),
					fmt.Sprintf("gather [%d]->10 0B", holder),
					"rtt 10-0",
					fmt.Sprintf("rtt 10-%d", owner),
					fmt.Sprintf("gather [%d]->10 %dB", owner, ps))
			}
			if !slices.Equal(after, want) {
				return fmt.Errorf("page %d (leaf holder %d, owner %d): charged %q, want %q", loc.Page, holder, owner, after, want)
			}
		}
		if moved == 0 || moved == len(locs) {
			return fmt.Errorf("%d of %d pages moved: want some of each", moved, len(locs))
		}
		return nil
	}
	eng.Go(func() {
		if err := run(); err != nil {
			t.Error(err)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	d.Close()
}
