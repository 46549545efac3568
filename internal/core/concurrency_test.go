// concurrency_test.go exercises the parallel data path: goroutine-safe
// Client use, concurrent scatter failure handling, and replica failover
// during a parallel gather round.
package core

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
)

// TestClientSharedAcrossGoroutines drives one Client from many real
// goroutines at once (distinct blobs): the documented thread-safety
// guarantee, checked under -race.
func TestClientSharedAcrossGoroutines(t *testing.T) {
	d := newLocalDeployment(t, Options{PageSize: 64})
	c := d.NewClient(0)
	const workers = 8
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = func() error {
				blob, err := c.CreateBlob(0)
				if err != nil {
					return err
				}
				data := bytes.Repeat([]byte{byte('a' + i)}, 300)
				for round := 0; round < 5; round++ {
					if _, _, err := blob.Append(Blocks(data)); err != nil {
						return err
					}
				}
				buf := make([]byte, 5*300)
				n, err := blob.ReadAt(buf, 0)
				if err != nil {
					return err
				}
				if n != int64(len(buf)) || !bytes.Equal(buf, bytes.Repeat(data, 5)) {
					return fmt.Errorf("worker %d: read-back mismatch (%d bytes)", i, n)
				}
				return nil
			}()
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
}

// TestClientSharedAppendersSameBlob has many goroutines append to one
// blob through one shared Client: each ticket's borrows, resolved by
// the version manager under contention, must link every append's tree
// to its true predecessors.
func TestClientSharedAppendersSameBlob(t *testing.T) {
	d := newLocalDeployment(t, Options{PageSize: 64})
	c := d.NewClient(0)
	blob, err := c.CreateBlob(0)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 6
	const chunk = 160 // not page-aligned: exercises boundary merges too
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			data := bytes.Repeat([]byte{byte('A' + i)}, chunk)
			if _, _, err := blob.Append(Blocks(data)); err != nil {
				errs[i] = err
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("appender %d: %v", i, err)
		}
	}
	v, size, err := blob.Latest()
	if err != nil || int(v) != workers || size != workers*chunk {
		t.Fatalf("Latest = v%d size=%d, %v; want v%d size=%d", v, size, err, workers, workers*chunk)
	}
	// Every appender's bytes must land exactly once, as one contiguous
	// run per writer.
	buf := make([]byte, size)
	if _, err := blob.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	counts := map[byte]int{}
	for _, b := range buf {
		counts[b]++
	}
	for i := 0; i < workers; i++ {
		if counts[byte('A'+i)] != chunk {
			t.Fatalf("appender %d contributed %d bytes, want %d", i, counts[byte('A'+i)], chunk)
		}
	}
}

// TestParallelGatherMidReadFailover fails a provider in a way the
// replica picker cannot see (its pages vanish from the store while the
// provider still reports up), so the failure surfaces inside the
// parallel gather round itself: the round must requeue only that
// provider's pages onto surviving replicas and still return correct
// bytes.
func TestParallelGatherMidReadFailover(t *testing.T) {
	d := newLocalDeployment(t, Options{Replication: 2, PageSize: 32})
	c := d.NewClient(0)
	blob, err := c.CreateBlob(0)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("0123456789abcdef"), 20) // 10 pages
	if _, err := blob.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	// Drop every page copy held by provider 2: pickReplica still
	// selects it (it is up), GetPages fails mid-gather, and the pages
	// fail over to their second replicas.
	locs, err := blob.Locations(0, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	dropped := 0
	for _, loc := range locs {
		for _, prov := range loc.Providers {
			if prov == 2 {
				d.Provider(2).Store().Delete(loc.Key())
				dropped++
			}
		}
	}
	if dropped == 0 {
		t.Fatal("placement never used provider 2; widen the write")
	}
	buf := make([]byte, len(data))
	n, err := blob.ReadAt(buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(data)) || !bytes.Equal(buf, data) {
		t.Fatalf("failover read returned %d bytes, mismatch=%v", n, !bytes.Equal(buf, data))
	}
}

// TestParallelScatterAbortOnFailure: when one provider of a parallel
// scatter is down, the write aborts cleanly after all in-flight puts
// joined, and the blob stays at its previous version.
func TestParallelScatterAbortOnFailure(t *testing.T) {
	d := newLocalDeployment(t, Options{PageSize: 32})
	c := d.NewClient(0)
	blob, _ := c.CreateBlob(0)
	if _, err := blob.WriteAt(bytes.Repeat([]byte("ab"), 80), 0); err != nil {
		t.Fatal(err)
	}
	d.Provider(3).SetDown(true)
	if _, err := blob.WriteAt(bytes.Repeat([]byte("cd"), 160), 0); !errors.Is(err, ErrProviderDown) {
		t.Fatalf("err = %v, want ErrProviderDown", err)
	}
	v, size, err := blob.Latest()
	if err != nil || v != 1 || size != 160 {
		t.Fatalf("Latest after aborted parallel write = v%d size=%d, %v", v, size, err)
	}
	d.Provider(3).SetDown(false)
	if _, err := blob.WriteAt(bytes.Repeat([]byte("ef"), 80), 0); err != nil {
		t.Fatal(err)
	}
}

// TestVersionManagerRecordsBatch: Records returns the full published
// history (aborted versions tagged) in one call, matching GetVersion.
func TestVersionManagerRecordsBatch(t *testing.T) {
	d := newLocalDeployment(t, Options{PageSize: 32, ProviderNodes: []cluster.NodeID{1}})
	c := d.NewClient(0)
	blob, _ := c.CreateBlob(0)
	blob.WriteAt([]byte("v1 data"), 0)
	d.Provider(1).SetDown(true)
	blob.WriteAt([]byte("v2 fails"), 0) // aborted
	d.Provider(1).SetDown(false)
	blob.WriteAt([]byte("v3 data"), 0)

	recs, err := d.VM.Shard(blob.ID()).records(0, blob.ID())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("Records returned %d records, want 3", len(recs))
	}
	for i, rec := range recs {
		if rec.Version != Version(i+1) {
			t.Fatalf("record %d has version %d", i, rec.Version)
		}
		wantAborted := i == 1
		if rec.Aborted != wantAborted {
			t.Fatalf("record v%d aborted=%v, want %v", rec.Version, rec.Aborted, wantAborted)
		}
	}
	if _, err := d.VM.Shard(BlobID(999)).records(0, BlobID(999)); !errors.Is(err, ErrNoSuchBlob) {
		t.Fatalf("unknown blob err = %v", err)
	}
}

// TestAppendBatchFailureDoesNotPoisonClient is the regression test for
// the stale-history bug: a failed batch must not leave its own
// (tombstoned) records cached with Aborted=false, or every later
// unaligned write whose boundary merge intersects them would fail with
// ErrAborted forever.
func TestAppendBatchFailureDoesNotPoisonClient(t *testing.T) {
	d := newLocalDeployment(t, Options{PageSize: 512, ProviderNodes: []cluster.NodeID{1, 2}})
	c := d.NewClient(0)
	blob, err := c.CreateBlob(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := blob.WriteAt(bytes.Repeat([]byte{0x11}, 100), 0); err != nil {
		t.Fatal(err)
	}
	for _, p := range d.ProviderList() {
		p.SetDown(true)
	}
	if _, _, err := blob.Append([]AppendBlock{
		{Data: bytes.Repeat([]byte{0x22}, 100)},
		{Data: bytes.Repeat([]byte{0x33}, 100)},
	}); err == nil {
		t.Fatal("batch succeeded with all providers down")
	}
	for _, p := range d.ProviderList() {
		p.SetDown(false)
	}
	// The recovered client must append again: its boundary merge sits
	// inside the failed batch's tombstoned span and must skip it.
	if _, _, err := blob.Append(Blocks(bytes.Repeat([]byte{0x44}, 100))); err != nil {
		t.Fatalf("append after failed batch: %v", err)
	}
	// The tombstoned spans stay in the history (appends land past
	// them), so the recovered blob is seed, a 200-byte zero hole where
	// the aborted batch sat, then the new append — and crucially none
	// of the aborted batch's bytes.
	_, size, err := blob.Latest()
	if err != nil || size != 400 {
		t.Fatalf("Latest = size %d, %v; want 400", size, err)
	}
	buf := make([]byte, 400)
	if _, err := blob.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	want := append(bytes.Repeat([]byte{0x11}, 100), make([]byte, 200)...)
	want = append(want, bytes.Repeat([]byte{0x44}, 100)...)
	if !bytes.Equal(buf, want) {
		t.Fatal("content after recovery does not match (aborted batch leaked or merge lost bytes)")
	}
}

// TestReadsDuringMigratingSweep: readers loop over every published
// version on real goroutines while sweeps migrate pages under them — a
// join, then drains of an original provider and of the joiner, so some
// pages move twice. Leaves keep their write-time holders, so many reads
// find a page only by probing the serving members, some while its copy
// is moving. Every read, through a long-lived client or a fresh one,
// must return its version's bytes.
func TestReadsDuringMigratingSweep(t *testing.T) {
	const ps, pages, readers = 64, 48, 4
	d, err := NewDeployment(cluster.NewLocal(12, 4), Options{PageSize: ps, ProviderNodes: []cluster.NodeID{1, 2, 3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	blob, err := d.NewClient(0).CreateBlob(0)
	if err != nil {
		t.Fatal(err)
	}
	cur := make([]byte, pages*ps)
	var versions [][]byte
	for v := range 4 {
		off, n := 0, pages*ps // v1 writes every page, later versions a third
		if v > 0 {
			off, n = v*9*ps, pages/3*ps
		}
		for i := off; i < off+n; i++ {
			cur[i] = byte(v*pages + i/ps)
		}
		if _, err := blob.WriteAt(cur[off:off+n], int64(off)); err != nil {
			t.Fatal(err)
		}
		versions = append(versions, slices.Clone(cur))
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for r := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			long := d.NewClient(cluster.NodeID(6 + r))
			buf := make([]byte, pages*ps)
			// Loop until the migrations are over, then once more.
			for i, done := 0, false; !done; i++ {
				done = stop.Load()
				c := long
				if i%2 == 1 {
					c = d.NewClient(cluster.NodeID(6 + r))
				}
				b, err := c.OpenBlob(blob.ID())
				if err != nil {
					errs <- err
					return
				}
				for v, want := range versions {
					if _, err := b.ReadAt(buf, 0, AtVersion(Version(v+1))); err != nil || !bytes.Equal(buf, want) {
						errs <- fmt.Errorf("reader %d, pass %d, version %d: %v, match=%v", r, i, v+1, err, bytes.Equal(buf, want))
						return
					}
				}
			}
		}()
	}
	migrated := 0
	for _, step := range []func() error{
		func() error { _, err := d.AddProvider(5); return err },
		func() error { return d.DrainProvider(2) },
		func() error { return d.DrainProvider(5) },
	} {
		if err := step(); err != nil {
			t.Error(err)
			break
		}
		st, err := d.Rebalance.SweepOnce()
		if err != nil {
			t.Error(err)
			break
		}
		migrated += st.PagesMigrated
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if migrated == 0 {
		t.Error("no sweep migrated a page")
	}
}
