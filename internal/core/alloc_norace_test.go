//go:build !race

package core

import (
	"runtime"
	"testing"

	"repro/internal/cluster"
)

// TestAllocFirstWriteFreshClient: a client's first write to a blob costs
// no more for a long history. The client holds no history — its ticket
// carries the borrows — so it copies and indexes nothing; a copy of
// 20 000 write records alone would be 1.4 MB. Bytes are measured, not
// allocation counts, so it stays out of the race legs like the counts.
func TestAllocFirstWriteFreshClient(t *testing.T) {
	const ps, versions, clients = 4 << 10, 20_000, 8
	d, c := newBenchDeployment(t, Options{PageSize: ps})
	blob, err := c.CreateBlob(0)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]AppendBlock, 500)
	for i := range batch {
		batch[i] = AppendBlock{Size: ps}
	}
	for done := 0; done < versions; done += len(batch) {
		if _, _, err := blob.Append(batch); err != nil {
			t.Fatal(err)
		}
	}
	fresh := make([]*Blob, clients)
	for i := range fresh {
		fresh[i] = openB(t, d.NewClient(0), blob.ID())
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, b := range fresh {
		if _, _, err := b.Append(SyntheticBlocks(ps)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / clients; per >= 64<<10 {
		t.Fatalf("a fresh client's first one-page append allocated %d bytes at %d versions, want < 64 KiB", per, versions)
	}
}

// TestAllocPublishOne: a one-version PublishBatch resolves under the
// manager's lock in the caller and allocates only its wait list.
func TestAllocPublishOne(t *testing.T) {
	const runs = 1000
	vm := NewVersionManager(cluster.NewLocal(2, 0), 0)
	blob, err := vm.createBlob(1, 128)
	if err != nil {
		t.Fatal(err)
	}
	intents := make([]WriteIntent, runs+1) // AllocsPerRun adds a warm-up call
	for i := range intents {
		intents[i] = WriteIntent{Off: -1, Length: 128}
	}
	if _, err := vm.RequestTickets(1, blob, intents, 0); err != nil {
		t.Fatal(err)
	}
	vs := make([]Version, 1)
	got := testing.AllocsPerRun(runs, func() {
		vs[0]++
		if err := vm.PublishBatch(bg, 1, blob, vs); err != nil {
			t.Fatal(err)
		}
	})
	if got > 2 {
		t.Fatalf("one-version PublishBatch: %.1f allocs/op, want <= 2", got)
	}
	if pub, _ := vm.published(1, blob); pub != runs+1 {
		t.Fatalf("frontier at %d after %d publishes", pub, runs+1)
	}
}
