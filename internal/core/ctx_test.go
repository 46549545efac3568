// ctx_test.go covers op-scoped cancellation end to end: canceled
// writes release their tickets (the publication frontier never
// wedges), deadline-expired reads surface the typed ErrCanceled
// mid-gather, and the fire-and-forget publication option still
// publishes in ticket order.
package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// frontierIntact fails the test unless every assigned ticket of the
// blob has resolved (published or aborted) — the no-leak invariant.
func frontierIntact(t *testing.T, d *Deployment, blob BlobID) {
	t.Helper()
	pub, err := d.VM.Shard(blob).published(0, blob)
	if err != nil {
		t.Fatal(err)
	}
	svm := d.VM.Shard(blob)
	svm.mu.Lock()
	assigned := len(svm.blobs[blob].records)
	unresolved := len(svm.blobs[blob].pending)
	svm.mu.Unlock()
	if int(pub) != assigned || unresolved != 0 {
		t.Fatalf("frontier at %d with %d tickets assigned and %d pending: ticket leaked", pub, assigned, unresolved)
	}
}

// TestCanceledWriteBeforeTicketBurnsNothing: a ctx canceled before the
// operation starts fails it up front — typed error, no version
// assigned.
func TestCanceledWriteBeforeTicketBurnsNothing(t *testing.T) {
	env := cluster.NewLocal(8, 4)
	d, err := NewDeployment(env, Options{PageSize: 128, ProviderNodes: []cluster.NodeID{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	blob, err := d.NewClient(0).CreateBlob(0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := cluster.WithCancel(env)
	cancel()
	if _, err := blob.WriteAt([]byte("never"), 0, WithCtx(ctx)); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if _, _, err := blob.Append(Blocks([]byte("never")), WithCtx(ctx)); !errors.Is(err, ErrCanceled) {
		t.Fatalf("append err = %v, want ErrCanceled", err)
	}
	if _, err := blob.ReadAt(make([]byte, 4), 0, WithCtx(ctx)); !errors.Is(err, ErrCanceled) {
		t.Fatalf("read err = %v, want ErrCanceled", err)
	}
	pub, err := d.VM.Shard(blob.ID()).published(0, blob.ID())
	if err != nil || pub != 0 {
		t.Fatalf("published = %d, %v: canceled ops burned a version", pub, err)
	}
	frontierIntact(t, d, blob.ID())
}

// TestCanceledAppendReleasesTicket: an append blocked behind an
// unpublished predecessor returns ErrCanceled promptly when its ctx is
// canceled, aborts its own ticket, and leaves the frontier able to
// advance — later writers and readers proceed normally.
func TestCanceledAppendReleasesTicket(t *testing.T) {
	env := cluster.NewLocal(8, 4)
	d, err := NewDeployment(env, Options{PageSize: 128, ProviderNodes: []cluster.NodeID{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	blob, err := d.NewClient(0).CreateBlob(0)
	if err != nil {
		t.Fatal(err)
	}
	id := blob.ID()

	// A stuck predecessor: ticket v1 assigned, never published.
	stuck, err := ticket1(d.VM.Shard(id), 1, id, -1, 10)
	if err != nil {
		t.Fatal(err)
	}

	// The cancellable append: its publish wait parks behind v1.
	ctx, cancel := cluster.WithCancel(env)
	done := make(chan error, 1)
	go func() {
		_, _, err := blob.Append(Blocks(bytes.Repeat([]byte("b"), 50)), WithCtx(ctx))
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let it reach the publish wait
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("append = %v, want ErrCanceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled append did not return promptly")
	}

	// Resolve the stuck predecessor; the canceled append's ticket must
	// already be tombstoned, so the frontier sweeps past both.
	if err := abort1(d.VM.Shard(id), 1, id, stuck.Record.Version); err != nil {
		t.Fatal(err)
	}
	frontierIntact(t, d, id)

	// The blob is fully usable: a new append publishes and reads back.
	data := []byte("after the cancellation")
	vs, off, err := blob.Append(Blocks(data))
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := blob.ReadAt(got, off, AtVersion(vs[0])); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after recovery: %q, %v", got, err)
	}
	frontierIntact(t, d, id)
}

// TestPublicationBeatsCancel forces the one order in which a canceled
// call must still succeed: the frontier passes its versions after its
// ctx fired and before its abort lands. The call parks in its publish
// wait behind a stuck predecessor until its deadline; the predecessor
// is then resolved from the version manager's own node (zero latency)
// while the caller's AbortBatch is still paying its round trip, so the
// abort finds every member published. A single write (N = 1) and a
// batch (N = 3) answer alike: no error, every version readable.
func TestPublicationBeatsCancel(t *testing.T) {
	for _, n := range []int{1, 3} {
		t.Run(fmt.Sprintf("N=%d", n), func(t *testing.T) {
			eng := sim.NewEngine()
			net := simnet.New(eng, simnet.Grid5000(8))
			env := cluster.NewSim(net)
			d, err := NewDeployment(env, Options{PageSize: 128, ProviderNodes: []cluster.NodeID{1, 2, 3}})
			if err != nil {
				t.Fatal(err)
			}
			const deadline = 50 * time.Millisecond // far past the write's own few round trips
			eng.Go(func() {
				blob, err := d.NewClient(4).CreateBlob(0)
				if err != nil {
					t.Error(err)
					return
				}
				id := blob.ID()
				vm := d.VM.Shard(id)
				// v1 stuck: one full page, so the call under test starts
				// page-aligned and waits nowhere but in its publish.
				stuck, err := ticket1(vm, vm.node, id, -1, 128)
				if err != nil {
					t.Error(err)
					return
				}
				t0 := env.Now()
				env.OneWay(4, vm.node)
				oneWay := env.Now() - t0
				ctx, cancel := withDeadline(env, deadline)
				defer cancel()
				start := env.Now()
				wg := env.NewWaitGroup()
				wg.Go(func() {
					env.Sleep(deadline + oneWay/2)
					if err := abort1(vm, vm.node, id, stuck.Record.Version); err != nil {
						t.Error(err)
					}
				})
				blocks := make([]AppendBlock, n)
				for i := range blocks {
					blocks[i] = AppendBlock{Data: bytes.Repeat([]byte{byte('a' + i)}, 50)}
				}
				vs, off, err := blob.Append(blocks, WithCtx(ctx))
				wg.Wait()
				if ctx.Err() == nil || env.Now()-start < deadline {
					t.Errorf("append returned at +%v with ctx.Err() = %v: the deadline never fired mid-wait", env.Now()-start, ctx.Err())
				}
				if err != nil || len(vs) != n {
					t.Errorf("append = %d versions, %v; want %d and no error (publication beat the cancel)", len(vs), err, n)
					return
				}
				for i, v := range vs {
					got := make([]byte, 50)
					if _, err := blob.ReadAt(got, off+int64(50*i), AtVersion(v)); err != nil || !bytes.Equal(got, blocks[i].Data) {
						t.Errorf("v%d reads %q, %v", v, got, err)
					}
				}
				frontierIntact(t, d, id)
			})
			if err := eng.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDeadlineExpiredReadMidGather: in the simulator, a read whose
// deadline expires while the page gather is moving bytes returns the
// typed ErrCanceled — and, since reads take no tickets, the blob and
// frontier stay fully usable.
func TestDeadlineExpiredReadMidGather(t *testing.T) {
	eng := sim.NewEngine()
	net := simnet.New(eng, simnet.Grid5000(12))
	env := cluster.NewSim(net)
	provs := make([]cluster.NodeID, 11)
	for i := range provs {
		provs[i] = cluster.NodeID(i + 1)
	}
	d, err := NewDeployment(env, Options{PageSize: 256 << 10, ProviderNodes: provs})
	if err != nil {
		t.Fatal(err)
	}
	const size = 64 << 20
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
		// A 64 MB gather takes far longer than 1ms of virtual time, so
		// the deadline fires while provider pages are in flight.
		ctx, cancel := withDeadline(env, time.Millisecond)
		defer cancel()
		start := env.Now()
		if _, err := blob.ReadAt(nil, 0, Synthetic(size), WithCtx(ctx)); !errors.Is(err, ErrCanceled) {
			t.Errorf("read = %v, want ErrCanceled", err)
			return
		}
		canceledAt := env.Now() - start

		// The same read without a deadline succeeds, and takes longer
		// than the canceled one returned in (the cancel was prompt).
		start = env.Now()
		if n, err := blob.ReadAt(nil, 0, Synthetic(size)); err != nil || n != size {
			t.Errorf("uncanceled read: %d, %v", n, err)
			return
		}
		if full := env.Now() - start; canceledAt >= full+time.Millisecond {
			t.Errorf("canceled read held on for %v, full read takes %v", canceledAt, full)
		}
		frontierIntact(t, d, blob.ID())

		// Writes still publish after the canceled read.
		if _, _, err := blob.Append(SyntheticBlocks(1 << 20)); err != nil {
			t.Error(err)
		}
		frontierIntact(t, d, blob.ID())
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}
