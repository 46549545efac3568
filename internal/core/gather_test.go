package core

import (
	"bytes"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// countingEnv counts the WaitGroups an operation makes and the
// goroutines it starts through them.
type countingEnv struct {
	cluster.Env
	groups, spawned atomic.Int64
}

func (e *countingEnv) NewWaitGroup() cluster.WaitGroup {
	e.groups.Add(1)
	return &countingWG{WaitGroup: e.Env.NewWaitGroup(), env: e}
}

type countingWG struct {
	cluster.WaitGroup
	env *countingEnv
}

func (w *countingWG) Go(fn func()) {
	w.env.spawned.Add(1)
	w.WaitGroup.Go(fn)
}

// TestFanOutOnlyPagesThatWait: a write puts every page from the calling
// goroutine, and so does a read whose pages all sit in provider RAM —
// no WaitGroup, no goroutine — while a read with some pages evicted to
// a disk backend fans out exactly the providers holding the evicted
// ones.
func TestFanOutOnlyPagesThatWait(t *testing.T) {
	env := &countingEnv{Env: cluster.NewLocal(8, 4)}
	d, err := NewDeployment(env, Options{
		PageSize:      128,
		ProviderNodes: []cluster.NodeID{1, 2, 3, 4},
		Provider:      ProviderConfig{Store: "disk:" + t.TempDir()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	blob, err := d.NewClient(0).CreateBlob(0)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("0123456789abcdef"), 8*64) // 64 pages
	if _, err := blob.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if g, s := env.groups.Load(), env.spawned.Load(); g != 0 || s != 0 {
		t.Fatalf("a 64-page write over 4 providers: %d WaitGroups and %d goroutines, want 0 and 0", g, s)
	}
	read := func(what string, wantGroups, wantSpawned int64) {
		t.Helper()
		g0, s0 := env.groups.Load(), env.spawned.Load()
		buf := make([]byte, len(data))
		if n, err := blob.ReadAt(buf, 0); err != nil || n != int64(len(data)) || !bytes.Equal(buf, data) {
			t.Fatalf("%s: read %d bytes, %v, match=%v", what, n, err, bytes.Equal(buf, data))
		}
		if g, s := env.groups.Load()-g0, env.spawned.Load()-s0; g != wantGroups || s != wantSpawned {
			t.Fatalf("%s: %d WaitGroups and %d goroutines, want %d and %d", what, g, s, wantGroups, wantSpawned)
		}
	}
	read("all resident", 0, 0)

	// A restarted provider reopens its pages from the backend: present,
	// none resident. The next read must wait for those two providers'
	// backends and for nothing else.
	for _, n := range []cluster.NodeID{2, 4} {
		if rec, err := d.RestartProvider(n); err != nil || rec == 0 {
			t.Fatalf("restart provider %d: %d pages recovered, %v (widen the write)", n, rec, err)
		}
	}
	read("providers 2 and 4 evicted", 1, 2)
	for _, p := range d.ProviderList() {
		st := p.Store().Stats()
		if evicted := p.Node() == 2 || p.Node() == 4; (st.Misses > 0) != evicted || st.Hits > 0 == evicted {
			t.Fatalf("provider %d: %d hits, %d misses after the mixed read", p.Node(), st.Hits, st.Misses)
		}
	}
	read("faulted back in", 0, 0)
}

// TestInlineGatherStillChargesVirtualTime: in the sim an all-resident
// read runs no goroutine, yet it costs exactly the virtual time it cost
// when every provider had its own: the round trip and the gather
// transfer are charged over every provider the round touched.
func TestInlineGatherStillChargesVirtualTime(t *testing.T) {
	eng := sim.NewEngine()
	env := cluster.NewSim(simnet.New(eng, simnet.Grid5000(12)))
	provs := make([]cluster.NodeID, 11)
	for i := range provs {
		provs[i] = cluster.NodeID(i + 1)
	}
	d, err := NewDeployment(env, Options{PageSize: 256 << 10, ProviderNodes: provs})
	if err != nil {
		t.Fatal(err)
	}
	const size = 64 * 256 << 10 // 64 pages
	var took time.Duration
	eng.Go(func() {
		blob, err := d.NewClient(0).CreateBlob(0)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := blob.WriteAt(nil, 0, Synthetic(size)); err != nil {
			t.Error(err)
			return
		}
		if _, err := blob.ReadAt(nil, 0, Synthetic(size)); err != nil { // warm the metadata cache
			t.Error(err)
			return
		}
		start := env.Now()
		if n, err := blob.ReadAt(nil, 0, Synthetic(size)); err != nil || n != size {
			t.Errorf("read %d, %v", n, err)
		}
		took = env.Now() - start
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	d.Close()
	// Measured at the commit before the inline stage existed (every
	// provider's batch in its own simulated process), same deployment.
	if want := 128200001 * time.Nanosecond; took != want {
		t.Fatalf("all-resident 64-page read took %v of virtual time, want %v", took, want)
	}
}

// TestThrottledScatterKeepsDisksParallel: once every provider holds
// more than dirtyCap unflushed bytes, a write runs at disk speed, and
// its providers' disks take their shares side by side: the put loop
// parks nowhere, the scatter's one transfer carries the disk share.
func TestThrottledScatterKeepsDisksParallel(t *testing.T) {
	const (
		ps    = 1 << 20
		fill  = dirtyCap + dirtyCap/2 // per provider
		write = 64 * ps
	)
	took := func(providers int) time.Duration {
		t.Helper()
		eng := sim.NewEngine()
		env := cluster.NewSim(simnet.New(eng, simnet.Grid5000(12)))
		provs := make([]cluster.NodeID, providers)
		for i := range provs {
			provs[i] = cluster.NodeID(i + 1)
		}
		d, err := NewDeployment(env, Options{PageSize: ps, ProviderNodes: provs})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		for _, p := range d.ProviderList() {
			p.Stop()
		}
		var took time.Duration
		eng.Go(func() {
			blob, err := d.NewClient(0).CreateBlob(0)
			if err != nil {
				t.Error(err)
				return
			}
			size := int64(providers) * fill
			if _, err := blob.WriteAt(nil, 0, Synthetic(size)); err != nil {
				t.Error(err)
				return
			}
			for _, p := range d.ProviderList() {
				if dirty := p.Store().DirtyBytes(); dirty <= dirtyCap {
					t.Errorf("provider %d holds %d unflushed bytes, want more than %d", p.Node(), dirty, dirtyCap)
				}
			}
			start := env.Now()
			if _, err := blob.WriteAt(nil, size, Synthetic(write)); err != nil {
				t.Error(err)
			}
			took = env.Now() - start
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return took
	}
	one, two := took(1), took(2)
	if t.Failed() {
		return
	}
	if two >= one {
		t.Fatalf("a throttled 64 MiB write took %v on two providers, not less than %v on one", two, one)
	}
	// The commit before, whose fan-out charged each provider's disk in
	// its put loop after the network transfer, took 1.5791009s and
	// 1.179101258s.
	if want := 1067100878 * time.Nanosecond; one != want {
		t.Errorf("one provider: a throttled 64 MiB write took %v of virtual time, want %v", one, want)
	}
	if want := 533767911 * time.Nanosecond; two != want {
		t.Errorf("two providers: a throttled 64 MiB write took %v of virtual time, want %v", two, want)
	}
}

// TestGatherFailoverBetweenStages: a provider that dies after the
// resident pages were copied but before the fan-out reaches it only
// requeues its own waiting pages onto their surviving replicas.
func TestGatherFailoverBetweenStages(t *testing.T) {
	env := &dieOnFanOut{Env: cluster.NewLocal(8, 4)}
	d, err := NewDeployment(env, Options{
		PageSize:      128,
		Replication:   2,
		ProviderNodes: []cluster.NodeID{1, 2, 3, 4},
		Provider:      ProviderConfig{Store: "disk:" + t.TempDir()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	blob, err := d.NewClient(0).CreateBlob(0)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("fedcba9876543210"), 8*64)
	if _, err := blob.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	// Providers 1 and 2 hold nothing in RAM, so the read's fan-out covers
	// both; provider 2 is taken down by the fan-out's own WaitGroup, i.e.
	// after stage one ran.
	for _, n := range []cluster.NodeID{1, 2} {
		if _, err := d.RestartProvider(n); err != nil {
			t.Fatal(err)
		}
	}
	env.victim.Store(d.Provider(2))
	buf := make([]byte, len(data))
	if n, err := blob.ReadAt(buf, 0); err != nil || n != int64(len(data)) || !bytes.Equal(buf, data) {
		t.Fatalf("read %d bytes, %v, match=%v", n, err, bytes.Equal(buf, data))
	}
	if env.victim.Load() != nil {
		t.Fatal("the read never fanned out, so provider 2 never died mid-gather")
	}
	// With the survivors of its pages gone too, the failure is typed.
	d.Provider(1).SetDown(true)
	d.Provider(3).SetDown(true)
	d.Provider(4).SetDown(true)
	if _, err := blob.ReadAt(buf, 0); !errors.Is(err, ErrAllReplicasDown) {
		t.Fatalf("err = %v, want ErrAllReplicasDown", err)
	}
}

// TestGatherFailoverIntoCallerBuffer: pages wholly inside a read are
// copied out straight into the caller's buffer, so a provider missing
// one page of its batch has already written the others there. That page
// alone is refetched from its second replica into its own window, and
// the buffer, filled with junk beforehand, reads back exactly the data,
// partial head and tail pages included.
func TestGatherFailoverIntoCallerBuffer(t *testing.T) {
	const ps = 128
	d, err := NewDeployment(cluster.NewLocal(8, 4), Options{
		PageSize:      ps,
		Replication:   2,
		ProviderNodes: []cluster.NodeID{1, 2, 3, 4},
		Provider:      ProviderConfig{Store: "disk:" + t.TempDir()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	blob, err := d.NewClient(0).CreateBlob(0)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 64*ps)
	for i := range data {
		data[i] = byte(i/ps) ^ byte(i*7)
	}
	if _, err := blob.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	// Every page waits for a backend read, so each provider's batch is
	// fetched page by page in the fan-out.
	for _, p := range d.ProviderList() {
		if _, err := d.RestartProvider(p.Node()); err != nil {
			t.Fatal(err)
		}
	}
	off, length := int64(ps/2), int64(len(data)-ps)
	locs, err := blob.Locations(off, length)
	if err != nil {
		t.Fatal(err)
	}
	// The victim serves the pages it is first replica of; it loses the
	// last of them, and copies out the others.
	var victim cluster.NodeID = 2
	var batch []PageLoc
	for _, l := range locs {
		if l.Providers[0] == victim {
			batch = append(batch, l)
		}
	}
	if len(batch) < 3 {
		t.Fatalf("provider %d is first replica of %d pages, want at least 3", victim, len(batch))
	}
	d.Provider(victim).Store().Delete(batch[len(batch)-1].Key())
	buf := bytes.Repeat([]byte{0xEE}, int(length))
	if n, err := blob.ReadAt(buf, off); err != nil || n != length || !bytes.Equal(buf, data[off:off+length]) {
		t.Fatalf("read %d bytes, %v, match=%v", n, err, bytes.Equal(buf, data[off:off+length]))
	}
	if st := d.Provider(victim).Store().Stats(); st.Misses != uint64(len(batch)-1) {
		t.Fatalf("provider %d read %d pages before failing, want %d", victim, st.Misses, len(batch)-1)
	}
}

// dieOnFanOut marks victim down the first time a WaitGroup is made.
type dieOnFanOut struct {
	cluster.Env
	victim atomic.Pointer[Provider]
}

func (e *dieOnFanOut) NewWaitGroup() cluster.WaitGroup {
	if p := e.victim.Swap(nil); p != nil {
		p.SetDown(true)
	}
	return e.Env.NewWaitGroup()
}

// TestAbortCostIndependentOfHistory: a failed write tombstones its own
// versions in O(members) — it used to copy the client's whole cached
// history, 720 KB at 10 000 versions — and the next successful write on
// that client still borrows around every dead version.
func TestAbortCostIndependentOfHistory(t *testing.T) {
	const ps, versions, failures = 512, 10_000, 200
	d, c := newBenchDeployment(t, Options{PageSize: ps})
	blob, err := c.CreateBlob(0)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]AppendBlock, 100)
	for i := range batch {
		batch[i] = AppendBlock{Size: ps}
	}
	for done := 0; done < versions; done += len(batch) {
		if _, _, err := blob.Append(batch); err != nil {
			t.Fatal(err)
		}
	}
	d.Provider(1).SetDown(true)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < failures; i++ {
		// Overwrites spread over the blob: each dead version "created"
		// every ancestor of its page, the ranges the next append borrows.
		if _, err := blob.WriteAt(nil, int64(i*(versions/failures))*ps, Synthetic(ps)); err == nil {
			t.Fatal("write succeeded with the only provider down")
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / failures; per > 64<<10 {
		t.Fatalf("a failed write allocated %d bytes at %d versions; the abort must not copy the history", per, versions)
	}
	d.Provider(1).SetDown(false)
	v, _, err := first(blob.Append(SyntheticBlocks(ps)))
	if err != nil {
		t.Fatal(err)
	}
	if v != versions+failures+1 {
		t.Fatalf("append after the failures is v%d, want v%d", v, versions+failures+1)
	}
	// No probe: a link to a dead version's never-written node is an error.
	capPages := capacityPages(int64(versions+1)*ps, ps)
	if _, err := walkTree(blob.ID(), v, capPages, 0, capPages, c.meta, nil); err != nil {
		t.Fatalf("tree of v%d links a dead version: %v", v, err)
	}
}
