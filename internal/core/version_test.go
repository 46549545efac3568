package core

import (
	"errors"
	"slices"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/simnet"
)

func localVM() *VersionManager {
	return NewVersionManager(cluster.NewLocal(4, 0), 0)
}

func TestCreateBlobAndPageSize(t *testing.T) {
	vm := localVM()
	id, err := vm.createBlob(1, 4096)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := vm.pageSize(1, id)
	if err != nil || ps != 4096 {
		t.Fatalf("PageSize = %d, %v", ps, err)
	}
	if _, err := vm.createBlob(1, 0); err == nil {
		t.Fatal("zero page size accepted")
	}
	if _, err := vm.pageSize(1, 999); !errors.Is(err, ErrNoSuchBlob) {
		t.Fatalf("err = %v, want ErrNoSuchBlob", err)
	}
}

func TestTicketAssignsOrderedVersions(t *testing.T) {
	vm := localVM()
	id, _ := vm.createBlob(0, 100)
	t1, err := ticket1(vm, 0, id, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	t2, _ := ticket1(vm, 0, id, -1, 50)
	if t1.Record.Version != 1 || t2.Record.Version != 2 {
		t.Fatalf("versions = %d, %d", t1.Record.Version, t2.Record.Version)
	}
	// Append resolved against the pending size of t1.
	if t2.Record.Offset != 100 {
		t.Fatalf("append offset = %d, want 100", t2.Record.Offset)
	}
	if t2.Record.SizeAfter != 150 {
		t.Fatalf("size after = %d", t2.Record.SizeAfter)
	}
	// Borrows: v1 has no tree to link to; v2 (page 1) links v1's page 0.
	assertBorrows(t, t1, 0)
	assertBorrows(t, t2, 1, nodeRef{blob: id, ver: 1})
	// v3 (page 1 again) reaches past v2, which did not create page 0.
	t3, _ := ticket1(vm, 0, id, -1, 10)
	assertBorrows(t, t3, 2, nodeRef{blob: id, ver: 1})
}

// assertBorrows checks the tree inputs a ticket carries: the capacity
// before its write and its borrowed children in buildNodes' order.
func assertBorrows(t *testing.T, tk Ticket, capBefore int64, want ...nodeRef) {
	t.Helper()
	if tk.capBefore != capBefore || !slices.Equal(tk.borrows, want) {
		t.Fatalf("v%d: capBefore %d, borrows %+v; want %d, %+v", tk.Record.Version, tk.capBefore, tk.borrows, capBefore, want)
	}
}

func TestTicketRejectsBadLength(t *testing.T) {
	vm := localVM()
	id, _ := vm.createBlob(0, 100)
	if _, err := ticket1(vm, 0, id, 0, 0); !errors.Is(err, ErrBadWrite) {
		t.Fatalf("err = %v", err)
	}
}

func TestPublishInOrder(t *testing.T) {
	// Publish of v2 must not become visible before v1. Run in the
	// simulator so the blocking is observable in virtual time.
	eng := sim.NewEngine()
	net := simnet.New(eng, simnet.Grid5000(4))
	env := cluster.NewSim(net)
	vm := NewVersionManager(env, 0)
	var id BlobID

	var v2Visible, v1Published time.Duration
	eng.Go(func() {
		id, _ = vm.createBlob(1, 100)
		ticket1(vm, 1, id, 0, 100)  // v1
		ticket1(vm, 1, id, -1, 100) // v2

		wg := env.NewWaitGroup()
		wg.Go(func() {
			// v2 publishes first but must wait for v1.
			if err := publish1(vm, bg, 1, id, 2); err != nil {
				t.Error(err)
			}
			v2Visible = env.Now()
		})
		wg.Go(func() {
			env.Sleep(time.Second)
			if err := publish1(vm, bg, 2, id, 1); err != nil {
				t.Error(err)
			}
			v1Published = env.Now()
		})
		wg.Wait()

		v, size, err := vm.latest(1, id)
		if err != nil || v != 2 || size != 200 {
			t.Errorf("Latest = %d/%d, %v", v, size, err)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if v2Visible < v1Published {
		t.Fatalf("v2 visible at %v before v1 published at %v", v2Visible, v1Published)
	}
}

func TestAbortUnblocksSuccessors(t *testing.T) {
	eng := sim.NewEngine()
	net := simnet.New(eng, simnet.Grid5000(4))
	env := cluster.NewSim(net)
	vm := NewVersionManager(env, 0)
	eng.Go(func() {
		id, _ := vm.createBlob(1, 100)
		ticket1(vm, 1, id, 0, 100)  // v1 (will abort)
		ticket1(vm, 1, id, -1, 100) // v2

		wg := env.NewWaitGroup()
		wg.Go(func() {
			if err := publish1(vm, bg, 1, id, 2); err != nil {
				t.Error(err)
			}
		})
		wg.Go(func() {
			env.Sleep(time.Second)
			if err := abort1(vm, 1, id, 1); err != nil {
				t.Error(err)
			}
		})
		wg.Wait()
		v, _, _ := vm.latest(1, id)
		if v != 2 {
			t.Errorf("Latest = %d, want 2 (v1 aborted)", v)
		}
		// Aborted version is not a readable snapshot.
		if _, err := vm.GetVersion(1, id, 1); !errors.Is(err, ErrAborted) {
			t.Errorf("GetVersion(aborted) = %v", err)
		}
		// Publishing an aborted version reports the abort.
		if err := publish1(vm, bg, 1, id, 1); !errors.Is(err, ErrAborted) {
			t.Errorf("Publish(aborted) = %v", err)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestWaitersWakeInVersionOrder: publishers, awaitPublished and
// pageOwner all park in one list, and an advance wakes them in version
// order, in arrival order within one version — whatever order they
// arrived in.
func TestWaitersWakeInVersionOrder(t *testing.T) {
	eng := sim.NewEngine()
	env := cluster.NewSim(simnet.New(eng, simnet.Grid5000(4)))
	vm := NewVersionManager(env, 0)
	var woke []string
	eng.Go(func() {
		id, _ := vm.createBlob(1, 100)
		for i := 0; i < 3; i++ {
			ticket1(vm, 1, id, -1, 100) // v1..v3, one page each
		}
		wg := env.NewWaitGroup()
		// Arrival order, one per second: publish v3, await v2, publish
		// v2, the owner of page 1 as of v2 (v2 itself); then v1
		// publishes.
		wg.Go(func() {
			if err := publish1(vm, bg, 1, id, 3); err != nil {
				t.Error(err)
			}
			woke = append(woke, "publish v3")
		})
		wg.Go(func() {
			env.Sleep(time.Second)
			if err := vm.awaitPublished(bg, 2, id, 2); err != nil {
				t.Error(err)
			}
			woke = append(woke, "await v2")
		})
		wg.Go(func() {
			env.Sleep(2 * time.Second)
			if err := publish1(vm, bg, 3, id, 2); err != nil {
				t.Error(err)
			}
			woke = append(woke, "publish v2")
		})
		wg.Go(func() {
			env.Sleep(3 * time.Second)
			if w, err := vm.pageOwner(bg, 2, id, 3, 1); err != nil || w != 2 {
				t.Errorf("pageOwner = %d, %v; want 2", w, err)
			}
			woke = append(woke, "owner v2")
		})
		env.Sleep(4 * time.Second)
		vm.mu.Lock()
		parked := len(vm.blobs[id].pubWaiters)
		vm.mu.Unlock()
		if parked != 4 {
			t.Errorf("%d waiters parked before v1 publishes, want 4", parked)
		}
		if err := publish1(vm, bg, 1, id, 1); err != nil {
			t.Error(err)
		}
		wg.Wait()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"await v2", "publish v2", "owner v2", "publish v3"}
	if !slices.Equal(woke, want) {
		t.Fatalf("woke %q, want %q", woke, want)
	}
}

// TestAbortUnderParkedPublisher: a version aborted while its publisher
// waits on the frontier stays parked until its predecessors resolve,
// then reports ErrAborted; the frontier passes it.
func TestAbortUnderParkedPublisher(t *testing.T) {
	eng := sim.NewEngine()
	env := cluster.NewSim(simnet.New(eng, simnet.Grid5000(4)))
	vm := NewVersionManager(env, 0)
	var returned, v1Published time.Duration
	eng.Go(func() {
		id, _ := vm.createBlob(1, 100)
		ticket1(vm, 1, id, 0, 100)  // v1
		ticket1(vm, 1, id, -1, 100) // v2
		wg := env.NewWaitGroup()
		wg.Go(func() {
			if err := publish1(vm, bg, 1, id, 2); !errors.Is(err, ErrAborted) {
				t.Errorf("publisher of aborted v2 = %v, want ErrAborted", err)
			}
			returned = env.Now()
		})
		env.Sleep(time.Second)
		if err := abort1(vm, 2, id, 2); err != nil {
			t.Error(err)
		}
		env.Sleep(time.Second)
		if returned != 0 {
			t.Errorf("publisher returned at %v, before v1 resolved", returned)
		}
		if err := publish1(vm, bg, 1, id, 1); err != nil {
			t.Error(err)
		}
		v1Published = env.Now()
		wg.Wait()
		if v, _, err := vm.latest(1, id); err != nil || v != 1 {
			t.Errorf("Latest = %d, %v; want 1 (v2 aborted)", v, err)
		}
		if pub, err := frontier(vm, 1, id); err != nil || pub != 2 {
			t.Errorf("frontier = %d, %v; want 2", pub, err)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if returned < v1Published {
		t.Fatalf("publisher returned at %v, v1 published at %v", returned, v1Published)
	}
}

func TestLatestSkipsTrailingAborted(t *testing.T) {
	vm := localVM()
	id, _ := vm.createBlob(0, 100)
	ticket1(vm, 0, id, 0, 100)
	ticket1(vm, 0, id, -1, 100)
	if err := publish1(vm, bg, 0, id, 1); err != nil {
		t.Fatal(err)
	}
	if err := abort1(vm, 0, id, 2); err != nil {
		t.Fatal(err)
	}
	v, size, err := vm.latest(0, id)
	if err != nil || v != 1 || size != 100 {
		t.Fatalf("Latest = %d/%d, %v", v, size, err)
	}
}

func TestGetVersionBounds(t *testing.T) {
	vm := localVM()
	id, _ := vm.createBlob(0, 100)
	if _, err := vm.GetVersion(0, id, 0); !errors.Is(err, ErrNoSuchVersion) {
		t.Fatalf("v0: %v", err)
	}
	ticket1(vm, 0, id, 0, 100)
	// Unpublished version is not readable.
	if _, err := vm.GetVersion(0, id, 1); !errors.Is(err, ErrNoSuchVersion) {
		t.Fatalf("unpublished: %v", err)
	}
	publish1(vm, bg, 0, id, 1)
	rec, err := vm.GetVersion(0, id, 1)
	if err != nil || rec.SizeAfter != 100 {
		t.Fatalf("published: %+v, %v", rec, err)
	}
	// Double publish is idempotent.
	if err := publish1(vm, bg, 0, id, 1); err != nil {
		t.Fatalf("re-publish: %v", err)
	}
}

// TestAbortTypedErrors: the full outcome table of AbortBatch of one.
// Unknown versions are ErrNoSuchVersion, published ones are left alone
// (a visible snapshot cannot be retracted, and the batch abort
// tolerates that: nil, version still readable), pending ones abort
// (idempotently), and unknown blobs are ErrNoSuchBlob — never a
// misleading "no such version" for a version that plainly exists.
func TestAbortTypedErrors(t *testing.T) {
	setup := func(t *testing.T) (*VersionManager, BlobID) {
		t.Helper()
		vm := localVM()
		id, err := vm.createBlob(0, 100)
		if err != nil {
			t.Fatal(err)
		}
		// v1: published. v2: pending. v3: aborted.
		for i := 0; i < 3; i++ {
			if _, err := ticket1(vm, 0, id, -1, 50); err != nil {
				t.Fatal(err)
			}
		}
		if err := publish1(vm, bg, 0, id, 1); err != nil {
			t.Fatal(err)
		}
		if err := abort1(vm, 0, id, 3); err != nil {
			t.Fatal(err)
		}
		return vm, id
	}
	for _, tc := range []struct {
		name string
		blob BlobID // 0 = the real blob
		v    Version
		want error // nil = success
	}{
		{name: "unknown blob", blob: 999, v: 1, want: ErrNoSuchBlob},
		{name: "version zero", v: 0, want: ErrNoSuchVersion},
		{name: "never assigned", v: 99, want: ErrNoSuchVersion},
		{name: "already published", v: 1, want: nil},
		{name: "pending", v: 2, want: nil},
		{name: "already aborted", v: 3, want: nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			vm, id := setup(t)
			if tc.blob != 0 {
				id = tc.blob
			}
			err := abort1(vm, 0, id, tc.v)
			if tc.want == nil {
				if err != nil {
					t.Fatalf("Abort = %v, want success", err)
				}
				if _, err := vm.GetVersion(0, id, 1); err != nil {
					t.Fatalf("published v1 unreadable after the abort: %v", err)
				}
				return
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("Abort = %v, want %v", err, tc.want)
			}
		})
	}
	// The pending abort above is also effective, not just error-free.
	vm, id := setup(t)
	if err := abort1(vm, 0, id, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := vm.GetVersion(0, id, 2); !errors.Is(err, ErrNoSuchVersion) && !errors.Is(err, ErrAborted) {
		t.Fatalf("GetVersion after abort = %v", err)
	}
	// Idempotent second abort of the same (now tombstoned) version.
	if err := abort1(vm, 0, id, 2); err != nil {
		t.Fatalf("re-abort = %v, want nil", err)
	}
}

// TestRequestTicketsBatch: one round trip assigns contiguous versions
// with per-ticket borrows, appends stack their offsets, and a bad
// intent fails the whole batch before any version is burned.
func TestRequestTicketsBatch(t *testing.T) {
	vm := localVM()
	id, _ := vm.createBlob(0, 100)
	if _, err := ticket1(vm, 0, id, 0, 100); err != nil {
		t.Fatal(err)
	}
	ts, err := vm.RequestTickets(0, id, []WriteIntent{
		{Off: -1, Length: 50},
		{Off: -1, Length: 70},
		{Off: 30, Length: 10},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 3 {
		t.Fatalf("%d tickets, want 3", len(ts))
	}
	// Contiguous versions 2,3,4; appends stack back-to-back.
	for i, want := range []struct {
		v    Version
		off  int64
		size int64
	}{{2, 100, 150}, {3, 150, 220}, {4, 30, 220}} {
		rec := ts[i].Record
		if rec.Version != want.v || rec.Offset != want.off || rec.SizeAfter != want.size {
			t.Fatalf("ticket %d = %+v, want v%d off %d size %d", i, rec, want.v, want.off, want.size)
		}
	}
	// Ticket i borrows from the batch's earlier tickets: v3 (pages 1-2)
	// links v1's page 0 and finds page 3 a hole; v4 (page 0) links v3's
	// page 1 and v3's [2,4).
	assertBorrows(t, ts[0], 1, nodeRef{blob: id, ver: 1})
	assertBorrows(t, ts[1], 2, nodeRef{blob: id, ver: 1}, nodeRef{})
	assertBorrows(t, ts[2], 4, nodeRef{blob: id, ver: 3}, nodeRef{blob: id, ver: 3})

	// A bad length rejects the whole batch atomically.
	if _, err := vm.RequestTickets(0, id, []WriteIntent{{Off: -1, Length: 10}, {Off: 0, Length: 0}}, 0); !errors.Is(err, ErrBadWrite) {
		t.Fatalf("bad batch err = %v", err)
	}
	ts2, err := vm.RequestTickets(0, id, []WriteIntent{{Off: -1, Length: 1}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ts2[0].Record.Version != 5 {
		t.Fatalf("version after rejected batch = %d, want 5 (no version burned)", ts2[0].Record.Version)
	}
	if _, err := vm.RequestTickets(0, 999, []WriteIntent{{Off: -1, Length: 1}}, 0); !errors.Is(err, ErrNoSuchBlob) {
		t.Fatalf("unknown blob err = %v", err)
	}
	// Empty batches are a no-op, not a panic.
	if ts, err := vm.RequestTickets(0, id, nil, 0); err != nil || len(ts) != 0 {
		t.Fatalf("empty batch = %v, %v", ts, err)
	}
}

// TestPublishBatchOneCall: a whole batch becomes visible in order
// through one call, interleaved with a concurrent single publisher,
// and the frontier advances across the batch under one lock hold.
func TestPublishBatchOneCall(t *testing.T) {
	eng := sim.NewEngine()
	net := simnet.New(eng, simnet.Grid5000(4))
	env := cluster.NewSim(net)
	vm := NewVersionManager(env, 0)
	eng.Go(func() {
		id, _ := vm.createBlob(1, 100)
		ts, err := vm.RequestTickets(1, id, []WriteIntent{
			{Off: -1, Length: 10}, {Off: -1, Length: 10}, {Off: -1, Length: 10},
		}, 0)
		if err != nil {
			t.Error(err)
			return
		}
		single, err := ticket1(vm, 2, id, -1, 10) // v4
		if err != nil {
			t.Error(err)
			return
		}
		wg := env.NewWaitGroup()
		wg.Go(func() {
			// v4 publishes first but must wait for the batch.
			if err := publish1(vm, bg, 2, id, single.Record.Version); err != nil {
				t.Error(err)
			}
			pub, _ := frontier(vm, 2, id)
			if pub < single.Record.Version {
				t.Errorf("v4 visible with frontier at %d", pub)
			}
		})
		wg.Go(func() {
			env.Sleep(time.Second)
			vs := []Version{ts[0].Record.Version, ts[1].Record.Version, ts[2].Record.Version}
			if err := vm.PublishBatch(bg, 1, id, vs); err != nil {
				t.Error(err)
			}
			pub, _ := frontier(vm, 1, id)
			if pub < vs[2] {
				t.Errorf("batch returned with frontier at %d, want >= %d", pub, vs[2])
			}
		})
		wg.Wait()
		v, size, err := vm.latest(1, id)
		if err != nil || v != 4 || size != 40 {
			t.Errorf("Latest = %d/%d, %v", v, size, err)
		}
		// Re-publishing an already published batch is idempotent.
		if err := vm.PublishBatch(bg, 1, id, []Version{1, 2, 3}); err != nil {
			t.Errorf("re-publish batch: %v", err)
		}
		// Empty batches are a no-op.
		if err := vm.PublishBatch(bg, 1, id, nil); err != nil {
			t.Errorf("empty batch: %v", err)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestPublishBatchWithAbortedMember: a batch containing a tombstoned
// version reports the abort while still publishing the live members.
func TestPublishBatchWithAbortedMember(t *testing.T) {
	vm := localVM()
	id, _ := vm.createBlob(0, 100)
	for i := 0; i < 3; i++ {
		ticket1(vm, 0, id, -1, 10)
	}
	if err := abort1(vm, 0, id, 2); err != nil {
		t.Fatal(err)
	}
	if err := vm.PublishBatch(bg, 0, id, []Version{1, 2, 3}); !errors.Is(err, ErrAborted) {
		t.Fatalf("batch with aborted member = %v, want ErrAborted", err)
	}
	v, _, err := vm.latest(0, id)
	if err != nil || v != 3 {
		t.Fatalf("Latest = %d, %v; want 3 (live members published)", v, err)
	}
}

// TestPublishBatchReverseOrder: a batch published in reverse ticket
// order resolves (every member is marked before any visibility wait,
// or the batch would deadlock on itself), and aborting a published
// version is tolerated and retracts nothing.
func TestPublishBatchReverseOrder(t *testing.T) {
	vm := localVM()
	id, _ := vm.createBlob(0, 100)
	ts, err := vm.RequestTickets(0, id, []WriteIntent{{Off: -1, Length: 25}, {Off: -1, Length: 25}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.PublishBatch(bg, 0, id, []Version{ts[1].Record.Version, ts[0].Record.Version}); err != nil {
		t.Fatal(err)
	}
	v, size, err := vm.latest(0, id)
	if err != nil || v != 2 || size != 50 {
		t.Fatalf("Latest = %d/%d, %v", v, size, err)
	}
	if err := abort1(vm, 0, id, 1); err != nil {
		t.Fatalf("abort published = %v", err)
	}
	if _, err := vm.GetVersion(0, id, 1); err != nil {
		t.Fatalf("published v1 unreadable after the abort: %v", err)
	}
}

func TestEmptyBlobLatest(t *testing.T) {
	vm := localVM()
	id, _ := vm.createBlob(0, 100)
	v, size, err := vm.latest(0, id)
	if err != nil || v != 0 || size != 0 {
		t.Fatalf("Latest(empty) = %d/%d, %v", v, size, err)
	}
}

// TestPublishNoConvoy: a deep publish backlog on one blob does not
// delay a single publish on another. Each call resolves under the
// manager's lock in the caller, so the quiet publish costs its round
// trip and nothing more, while every backlog version still becomes
// visible.
func TestPublishNoConvoy(t *testing.T) {
	const chunk, chunks, quiets = 8, 25, 6
	eng := sim.NewEngine()
	env := cluster.NewSim(simnet.New(eng, simnet.Grid5000(4)))
	vm := NewVersionManager(env, 0)
	var rtt time.Duration
	var quietLat [quiets]time.Duration
	eng.Go(func() {
		t0 := env.Now()
		env.RTT(1, 0)
		rtt = env.Now() - t0
		hog, _ := vm.createBlob(1, 128)
		quiet := make([]BlobID, quiets)
		quietV := make([]Version, quiets)
		for i := range quiet {
			quiet[i], _ = vm.createBlob(1, 128)
			tk, err := ticket1(vm, 1, quiet[i], -1, 128)
			if err != nil {
				t.Error(err)
				return
			}
			quietV[i] = tk.Record.Version
		}
		intents := make([]WriteIntent, chunk*chunks)
		for i := range intents {
			intents[i] = WriteIntent{Off: -1, Length: 128}
		}
		if _, err := vm.RequestTickets(1, hog, intents, 0); err != nil {
			t.Error(err)
			return
		}
		wg := env.NewWaitGroup()
		for c := 0; c < chunks; c++ {
			vs := make([]Version, chunk)
			for i := range vs {
				vs[i] = Version(c*chunk + i + 1)
			}
			wg.Go(func() {
				if err := vm.PublishBatch(bg, 1, hog, vs); err != nil {
					t.Error(err)
				}
			})
		}
		for i := 0; i < quiets; i++ {
			wg.Go(func() {
				t0 := env.Now()
				if err := publish1(vm, bg, 1, quiet[i], quietV[i]); err != nil {
					t.Error(err)
				}
				quietLat[i] = env.Now() - t0
			})
		}
		wg.Wait()
		if err := vm.awaitPublished(bg, 1, hog, Version(chunk*chunks)); err != nil {
			t.Error(err)
		}
		if v, _, err := vm.latest(1, hog); err != nil || v != chunk*chunks {
			t.Errorf("backlog Latest = %d, %v; want %d", v, err, chunk*chunks)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if rtt <= 0 {
		t.Fatalf("round trip to the manager = %s, want > 0", rtt)
	}
	for i, lat := range quietLat {
		if lat > rtt {
			t.Errorf("quiet publish %d took %s behind a %d-version backlog, want <= its %s round trip", i, lat, chunk*chunks, rtt)
		}
	}
}

// NewVersionManager creates a standalone (single-shard) version
// manager hosted on node: shard 0 of stride 1, allocating the dense id
// sequence 1, 2, 3, ... exactly as the paper's centralized manager.
func NewVersionManager(env cluster.Env, node cluster.NodeID) *VersionManager {
	return newVersionManagerShard(env, node, 0, 1, 0)
}
