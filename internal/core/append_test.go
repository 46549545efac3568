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

// TestConcurrentSubPageAppendsLoseNothing is the regression test for
// the boundary-page merge: appends far smaller than a page, issued by
// many concurrent clients, share pages, and every byte must survive.
// (The naive merge against "latest published" loses a predecessor's
// fragment whenever it has not yet published.)
func TestConcurrentSubPageAppendsLoseNothing(t *testing.T) {
	eng := sim.NewEngine()
	net := simnet.New(eng, simnet.Grid5000(12))
	env := cluster.NewSim(net)
	provs := make([]cluster.NodeID, 11)
	for i := range provs {
		provs[i] = cluster.NodeID(i + 1)
	}
	d, err := NewDeployment(env, Options{PageSize: 4096, ProviderNodes: provs})
	if err != nil {
		t.Fatal(err)
	}
	const (
		appenders = 10
		perAppend = 100 // bytes, far below the page size
		rounds    = 8
	)
	var blob BlobID
	eng.Go(func() {
		c0 := d.NewClient(0)
		b0, err := c0.CreateBlob(0)
		if err != nil {
			t.Error(err)
			return
		}
		blob = b0.ID()
		wg := env.NewWaitGroup()
		for a := 0; a < appenders; a++ {
			node := cluster.NodeID(a + 1)
			wg.Go(func() {
				c := d.NewClient(node)
				bh, err := c.OpenBlob(blob)
				if err != nil {
					t.Error(err)
					return
				}
				payload := bytes.Repeat([]byte{byte('A' + a)}, perAppend)
				for r := 0; r < rounds; r++ {
					if _, _, err := bh.Append(Blocks(payload)); err != nil {
						t.Errorf("appender %d round %d: %v", a, r, err)
						return
					}
				}
			})
		}
		wg.Wait()

		total := int64(appenders * perAppend * rounds)
		_, size, err := b0.Latest()
		if err != nil || size != total {
			t.Errorf("size = %d, want %d (%v)", size, total, err)
			return
		}
		buf := make([]byte, total)
		if _, err := b0.ReadAt(buf, 0); err != nil {
			t.Error(err)
			return
		}
		// Count every appender's bytes: nothing lost, nothing zeroed.
		counts := map[byte]int{}
		for _, bb := range buf {
			counts[bb]++
		}
		if counts[0] > 0 {
			t.Errorf("%d zero bytes in appended stream (lost fragments)", counts[0])
		}
		for a := 0; a < appenders; a++ {
			if got := counts[byte('A'+a)]; got != perAppend*rounds {
				t.Errorf("appender %d: %d bytes survive, want %d", a, got, perAppend*rounds)
			}
		}
		// Each append must also be contiguous (no interleaving within
		// one 100-byte record).
		for i := int64(0); i < total; i += perAppend {
			first := buf[i]
			if !bytes.Equal(buf[i:i+perAppend], bytes.Repeat([]byte{first}, perAppend)) {
				t.Errorf("record at %d not contiguous", i)
				return
			}
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestAwaitPublished checks the primitive directly.
func TestAwaitPublished(t *testing.T) {
	eng := sim.NewEngine()
	net := simnet.New(eng, simnet.Grid5000(4))
	env := cluster.NewSim(net)
	vm := NewVersionManager(env, 0)
	eng.Go(func() {
		id, _ := vm.CreateBlob(1, 100)
		ticket1(vm, 1, id, 0, 100)  // v1
		ticket1(vm, 1, id, -1, 100) // v2
		wg := env.NewWaitGroup()
		var mu sync.Mutex
		var order []string
		add := func(s string) {
			mu.Lock()
			order = append(order, s)
			mu.Unlock()
		}
		wg.Go(func() {
			if err := vm.AwaitPublished(bg, 2, id, 2); err != nil {
				t.Error(err)
			}
			add("awaited")
		})
		wg.Go(func() {
			publish1(vm, bg, 1, id, 1)
			add("p1")
			publish1(vm, bg, 1, id, 2)
			add("p2")
		})
		wg.Wait()
		if len(order) != 3 || order[0] != "p1" {
			t.Errorf("order = %v", order)
		}
		// Await on an already published version returns immediately.
		if err := vm.AwaitPublished(bg, 2, id, 1); err != nil {
			t.Error(err)
		}
		// Await on a never-assigned version errors.
		if err := vm.AwaitPublished(bg, 2, id, 99); err == nil {
			t.Error("await on unassigned version succeeded")
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestAwaitPublishedUnblockedByAbort: aborting the predecessor lets the
// waiter proceed.
func TestAwaitPublishedUnblockedByAbort(t *testing.T) {
	eng := sim.NewEngine()
	net := simnet.New(eng, simnet.Grid5000(4))
	env := cluster.NewSim(net)
	vm := NewVersionManager(env, 0)
	eng.Go(func() {
		id, _ := vm.CreateBlob(1, 100)
		ticket1(vm, 1, id, 0, 100)
		done := false
		wg := env.NewWaitGroup()
		wg.Go(func() {
			vm.AwaitPublished(bg, 2, id, 1)
			done = true
		})
		wg.Go(func() {
			abort1(vm, 1, id, 1)
		})
		wg.Wait()
		if !done {
			t.Error("abort did not release the publication waiter")
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestHeadOwnerAbortsMidMerge forces the one order in which a boundary
// merge must change its mind: an unaligned append's head page was last
// written by v2, still pending when the append takes its ticket, and v2
// aborts while the append waits for it. The abort comes from the version
// manager's own node long after the append parked on v2; the append
// then merges from the page's older owner — or zeros, if there is none —
// and publishes.
func TestHeadOwnerAbortsMidMerge(t *testing.T) {
	const ps, delay = 128, 50 * time.Millisecond
	for _, tc := range []struct {
		name string
		v1   int // bytes v1 writes at 0: past one page, v1 also owns page 1
	}{{"older owner", 200}, {"hole", ps}} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			net := simnet.New(eng, simnet.Grid5000(8))
			env := cluster.NewSim(net)
			d, err := NewDeployment(env, Options{PageSize: ps, ProviderNodes: []cluster.NodeID{1, 2, 3}})
			if err != nil {
				t.Fatal(err)
			}
			eng.Go(func() {
				blob, err := d.NewClient(4).CreateBlob(0)
				if err != nil {
					t.Error(err)
					return
				}
				id := blob.ID()
				vm := d.VM.Shard(id)
				old := bytes.Repeat([]byte("a"), tc.v1)
				if _, err := blob.WriteAt(old, 0); err != nil {
					t.Error(err)
					return
				}
				// v2: 50 bytes inside page 1, ticketed and never written.
				stuck, err := ticket1(vm, vm.Node(), id, -1, 50)
				if err != nil {
					t.Error(err)
					return
				}
				wg := env.NewWaitGroup()
				wg.Go(func() {
					env.Sleep(delay)
					vm.mu.Lock()
					parked := slices.ContainsFunc(vm.blobs[id].pubWaiters, func(w pubWaiter) bool { return w.v == stuck.Record.Version })
					vm.mu.Unlock()
					if !parked {
						t.Error("the append is not waiting on its head page's owner")
					}
					if err := abort1(vm, vm.Node(), id, stuck.Record.Version); err != nil {
						t.Error(err)
					}
				})
				data := bytes.Repeat([]byte("b"), 40)
				vs, _, err := blob.Append(Blocks(data))
				wg.Wait()
				if err != nil {
					t.Errorf("append after its head owner aborted: %v", err)
					return
				}
				want := slices.Concat(old, make([]byte, 50), data)
				got := make([]byte, len(want)+1)
				if n, err := blob.ReadAt(got, 0, AtVersion(vs[0])); err != nil || !bytes.Equal(got[:n], want) {
					t.Errorf("v%d reads %q, %v; want %q", vs[0], got[:n], err, want)
				}
				frontierIntact(t, d, id)
			})
			if err := eng.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestInterleavedWritersManyBlobs exercises the full write protocol
// under cross-blob concurrency.
func TestInterleavedWritersManyBlobs(t *testing.T) {
	eng := sim.NewEngine()
	net := simnet.New(eng, simnet.Grid5000(16))
	env := cluster.NewSim(net)
	provs := make([]cluster.NodeID, 15)
	for i := range provs {
		provs[i] = cluster.NodeID(i + 1)
	}
	d, err := NewDeployment(env, Options{PageSize: 1024, ProviderNodes: provs})
	if err != nil {
		t.Fatal(err)
	}
	eng.Go(func() {
		c0 := d.NewClient(0)
		blobs := make([]*Blob, 5)
		for i := range blobs {
			blobs[i], _ = c0.CreateBlob(0)
		}
		wg := env.NewWaitGroup()
		for w := 0; w < 15; w++ {
			node := cluster.NodeID(w + 1)
			blob := blobs[w%5].ID()
			wg.Go(func() {
				c := d.NewClient(node)
				bh, err := c.OpenBlob(blob)
				if err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				payload := []byte(fmt.Sprintf("writer-%02d-payload", w))
				for r := 0; r < 5; r++ {
					if _, _, err := bh.Append(Blocks(payload)); err != nil {
						t.Errorf("writer %d: %v", w, err)
						return
					}
				}
			})
		}
		wg.Wait()
		for i, blob := range blobs {
			_, size, err := blob.Latest()
			if err != nil {
				t.Errorf("blob %d: %v", i, err)
				continue
			}
			want := int64(3 * 5 * len("writer-00-payload"))
			if size != want {
				t.Errorf("blob %d size = %d, want %d", i, size, want)
			}
			buf := make([]byte, size)
			if _, err := blob.ReadAt(buf, 0); err != nil {
				t.Errorf("blob %d read: %v", i, err)
			}
			if bytes.IndexByte(buf, 0) >= 0 {
				t.Errorf("blob %d contains zero bytes (lost fragment)", i)
			}
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}
