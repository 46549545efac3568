package core

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/cluster"
)

// history is the reference the creator index is checked against: the
// ordered write records of one blob (index i holds version i+1) and the
// backward scan over them that used to answer every borrow.
type history []WriteRecord

func (h history) record(v Version) (WriteRecord, bool) {
	i := int(v) - 1
	if i < 0 || i >= len(h) {
		return WriteRecord{}, false
	}
	return h[i], true
}

// borrow returns the identity (blob, version) of the newest non-aborted
// node with exactly range r among versions <= v, or (0, 0) if no version
// ever created it (hole) — O(v) per call.
func (h history) borrow(v Version, r pageRange, pageSize int64) (BlobID, Version) {
	for w := v; w >= 1; w-- {
		rec, ok := h.record(w)
		if !ok {
			continue
		}
		if spanOf(rec, capBefore(h, w), pageSize).creates(r) {
			if rec.Aborted {
				continue
			}
			return rec.blob, w
		}
	}
	return 0, 0
}

// indexOf builds the blob state the version manager would hold after
// assigning h, creator index included.
func indexOf(h history, pageSize int64) *blobState {
	b := newBlobState(pageSize)
	for _, rec := range h {
		b.push(rec, nil)
	}
	return b
}

// buildNodesFromHistory builds rec's tree the way the write path does:
// the records below rec are indexed, rec's borrows resolved as its
// ticket is assigned, and the nodes built from those.
func buildNodesFromHistory(out map[string][]byte, rec WriteRecord, h history, pageSize int64, placement pagePlacement) {
	below := h[:min(len(h), int(rec.Version)-1)]
	tb := treeBuild{out: out}
	tb.buildNodes(Ticket{Record: rec, borrows: indexOf(below, pageSize).push(rec, nil), capBefore: capBefore(below, rec.Version)}, pageSize, placement)
	if len(tb.borrows) != 0 {
		panic(fmt.Sprintf("build left %d borrows unconsumed", len(tb.borrows)))
	}
}

// lookup answers one borrow from the index (blobState.creator) with the
// key space the scan reports.
func (b *blobState) lookup(v Version, r pageRange) (BlobID, Version) {
	w := b.creator(v, r)
	if w == 0 {
		return 0, 0
	}
	return b.records[w-1].blob, w
}

// randomHistory mixes appends, overwrites, writes far past the end
// (spine growth), 1- to 90-page spans and ~1 in 7 aborted versions over
// a cloned prefix whose records carry the source blob.
func randomHistory(rng *rand.Rand, n int, ps int64) history {
	var h history
	size := int64(0)
	cloned := 20 + rng.Intn(40)
	for v := 1; v <= n; v++ {
		off := size
		switch rng.Intn(8) {
		case 0, 1, 2:
			if size > 0 {
				off = rng.Int63n(size) // overwrite
			}
		case 3:
			off = size + rng.Int63n(4000*ps) // far past the end
		}
		length := 1 + rng.Int63n(90*ps)
		if rng.Intn(3) == 0 {
			length = 1 + rng.Int63n(2*ps)
		}
		size = max(size, off+length)
		blob := BlobID(7)
		if v <= cloned {
			blob = 3
		}
		h = append(h, WriteRecord{
			blob: blob, Version: Version(v), Offset: off, Length: length,
			SizeAfter: size, capAfter: capacityPages(size, ps), Aborted: v > 1 && rng.Intn(7) == 0,
		})
	}
	return h
}

// TestIndexBorrowMatchesScan: the version manager's index and the
// reference scan agree on (blob, version) for random ranges at random
// versions, later versions already indexed (as when other writers hold
// newer tickets), and on the borrows each version's ticket carries.
func TestIndexBorrowMatchesScan(t *testing.T) {
	const ps = 64
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := randomHistory(rng, 300, ps)
		bi := indexOf(h, ps)
		top := h[len(h)-1].capAfter
		for i := 0; i < 4000; i++ {
			v := Version(rng.Intn(len(h) + 1))
			count := int64(1) << rng.Intn(bits.Len64(uint64(top)))
			r := pageRange{off: rng.Int63n(top/count) * count, count: count}
			if i%3 == 0 { // bias towards ranges something wrote
				rec := h[rng.Intn(len(h))]
				lo, _ := pageSpan(rec.Offset, rec.Length, ps)
				r.off = lo &^ (count - 1)
			}
			wb, wv := h.borrow(v, r, ps)
			gb, gv := bi.lookup(v, r)
			if gb != wb || gv != wv {
				t.Fatalf("seed %d: borrow(%d, %+v): index (%d,%d), scan (%d,%d)", seed, v, r, gb, gv, wb, wv)
			}
		}
		// And the write path's own use: every version's borrows, resolved
		// as it is indexed, are the scan's answers, in buildNodes' order.
		inc := newBlobState(ps)
		for _, rec := range h {
			borrows := inc.push(rec, nil)
			s := spanOf(rec, capBefore(h, rec.Version), ps)
			var check func(r pageRange)
			check = func(r pageRange) {
				if r.leaf() {
					return
				}
				for _, half := range [2]pageRange{r.left(), r.right()} {
					if s.creates(half) {
						check(half)
						continue
					}
					wb, wv := h.borrow(rec.Version-1, half, ps)
					if len(borrows) == 0 || borrows[0] != (nodeRef{blob: wb, ver: wv}) {
						t.Fatalf("seed %d v%d child %+v: resolved %+v, scan (%d,%d)", seed, rec.Version, half, borrows, wb, wv)
					}
					borrows = borrows[1:]
				}
			}
			check(pageRange{count: rec.capAfter})
			if len(borrows) != 0 {
				t.Fatalf("seed %d v%d: %d borrows nobody consumes", seed, rec.Version, len(borrows))
			}
		}
	}
}

// TestIndexEntriesPerRecordIsLogarithmic: a ticket costs the version
// manager's index O(log capacity) entries however many pages it spans
// (an index with one entry per created node costs ~2 per page).
func TestIndexEntriesPerRecordIsLogarithmic(t *testing.T) {
	const ps = 64
	vm := localVM()
	id, _ := vm.createBlob(0, ps)
	if _, err := ticket1(vm, 0, id, 0, int64(1<<20)*ps); err != nil {
		t.Fatal(err)
	}
	log := func() int {
		vm.mu.Lock()
		defer vm.mu.Unlock()
		return len(vm.blobs[id].index.log)
	}
	for _, w := range []struct{ page, pages int64 }{{777_777, 1}, {123_456, 4096}, {1 << 20, 4096}} {
		before := log()
		tk, err := ticket1(vm, 0, id, w.page*ps, w.pages*ps)
		if err != nil {
			t.Fatal(err)
		}
		bound := 4*bits.Len64(uint64(tk.Record.capAfter)-1) + 4
		if got := log() - before; got > bound {
			t.Errorf("%d-page write at page %d added %d index entries, want <= %d", w.pages, w.page, got, bound)
		}
	}
}

// TestConcurrentWritersOneClientIndex: 8 goroutines share one Client
// appending to and overwriting one blob, their tickets resolved against
// the version manager's one index; every published version must read
// back equal to the byte model replayed from the manager's records.
func TestConcurrentWritersOneClientIndex(t *testing.T) {
	const ps, writers, perWriter = 128, 8, 24
	d := newLocalDeployment(t, Options{PageSize: ps, ProviderNodes: []cluster.NodeID{1, 2, 3}})
	blob, err := d.NewClient(0).CreateBlob(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := blob.WriteAt(bytes.Repeat([]byte{0xEE}, 16*ps), 0); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	written := map[Version][]byte{1: bytes.Repeat([]byte{0xEE}, 16*ps)}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWriter; i++ {
				// The payload cannot name its version before the ticket
				// assigns one, so each write carries a unique tag instead.
				tag := byte(2 + w*perWriter + i)
				data := bytes.Repeat([]byte{tag}, int(1+rng.Int63n(5))*ps)
				var v Version
				var err error
				if rng.Intn(2) == 0 {
					v, _, err = first(blob.Append(Blocks(data)))
				} else {
					v, err = blob.WriteAt(data, rng.Int63n(16)*ps)
				}
				if err != nil {
					t.Errorf("writer %d op %d: %v", w, i, err)
					return
				}
				mu.Lock()
				written[v] = data
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	recs, err := blob.History()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1+writers*perWriter {
		t.Fatalf("%d records, want %d", len(recs), 1+writers*perWriter)
	}
	var model []byte
	for _, rec := range recs {
		if int64(len(model)) < rec.SizeAfter {
			model = append(model, make([]byte, rec.SizeAfter-int64(len(model)))...)
		}
		copy(model[rec.Offset:], written[rec.Version])
		got := make([]byte, rec.SizeAfter)
		if _, err := blob.ReadAt(got, 0, AtVersion(rec.Version)); err != nil {
			t.Fatalf("read v%d: %v", rec.Version, err)
		}
		if !bytes.Equal(got, model[:rec.SizeAfter]) {
			t.Fatalf("v%d diverges from the byte model", rec.Version)
		}
	}
}
