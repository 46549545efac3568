package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
)

// TestQuickPageSpanInvariants: the page span always covers the byte
// span and never over-covers by more than a page on each side.
func TestQuickPageSpanInvariants(t *testing.T) {
	f := func(off, length uint32, psExp uint8) bool {
		ps := int64(1) << (psExp%12 + 4) // 16 B .. 32 KB
		o, l := int64(off), int64(length%1<<20)+1
		lo, hi := pageSpan(o, l, ps)
		if lo*ps > o {
			return false // first page starts after the write
		}
		if hi*ps < o+l {
			return false // last page ends before the write
		}
		if (lo+1)*ps <= o || (hi-1)*ps >= o+l {
			return false // over-coverage beyond one page
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(21))}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCapacityMonotonic: capacity is a power of two, at least the
// page count, and monotone in size.
func TestQuickCapacityMonotonic(t *testing.T) {
	f := func(a, b uint32, psExp uint8) bool {
		ps := int64(1) << (psExp%12 + 4)
		sa, sb := int64(a), int64(b)
		if sa > sb {
			sa, sb = sb, sa
		}
		ca, cb := capacityPages(sa, ps), capacityPages(sb, ps)
		if ca&(ca-1) != 0 || cb&(cb-1) != 0 {
			return false // not powers of two
		}
		if ca*ps < sa || cb*ps < sb {
			return false // capacity below size
		}
		return ca <= cb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(22))}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCanonicalRangeTree: left and right halves of a canonical
// range are canonical, disjoint, and exactly tile the parent.
func TestQuickCanonicalRangeTree(t *testing.T) {
	f := func(offMul uint16, lvl uint8) bool {
		count := int64(1) << (lvl%20 + 1) // >= 2, so halves exist
		r := pageRange{off: int64(offMul) * count, count: count}
		l, h := r.left(), r.right()
		if l.count != h.count || l.count*2 != r.count {
			return false
		}
		if l.off != r.off || h.off != r.off+l.count {
			return false
		}
		if l.end() != h.off || h.end() != r.end() {
			return false
		}
		// Canonical: offset a multiple of count.
		return l.off%l.count == 0 && h.off%h.count == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(23))}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickPageExtentMatchesNaive checks pageExtent against the
// obvious reference: count the bytes b in [p*ps, (p+1)*ps) with
// b < size. Covers pages entirely before, straddling, and entirely
// past the end of the blob, including zero-size blobs.
func TestQuickPageExtentMatchesNaive(t *testing.T) {
	f := func(pRaw, sizeRaw uint16, psExp uint8) bool {
		ps := int64(1) << (psExp%6 + 1) // 2 B .. 64 B, small enough to loop
		p := int64(pRaw % 64)
		size := int64(sizeRaw % 4096)
		naive := int64(0)
		for b := p * ps; b < (p+1)*ps; b++ {
			if b < size {
				naive++
			}
		}
		return pageExtent(p, ps, size) == naive
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4000, Rand: rand.New(rand.NewSource(31))}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickWriteReadMatchesByteModel drives random write sequences —
// arbitrary offsets and lengths, zero-length rejects, page-boundary
// straddles, sparse holes, writes inside the blob whose head and tail
// are both unaligned, appends and batched appends — through a real
// deployment and compares every snapshot, including each version a
// batch returns, against a naive byte array. This is the end-to-end
// property check for mergeFragment and writeBlocks' page assembly:
// every boundary merge must reproduce exactly the bytes the model says
// were there.
func TestQuickWriteReadMatchesByteModel(t *testing.T) {
	const ps = int64(32)
	for trial := 0; trial < 12; trial++ {
		rng := rand.New(rand.NewSource(int64(40 + trial)))
		d := newLocalDeployment(t, Options{PageSize: ps, ProviderNodes: []cluster.NodeID{1, 2, 3}})
		c := d.NewClient(0)
		blob, err := c.CreateBlob(0)
		if err != nil {
			t.Fatal(err)
		}
		// Zero-length writes are rejected up front, with no version
		// burned.
		if _, err := blob.WriteAt(nil, 5); !errors.Is(err, ErrBadWrite) {
			t.Fatalf("zero-length write: %v", err)
		}
		if _, _, err := blob.Append([]AppendBlock{{Data: []byte("x")}, {Size: 0}}); !errors.Is(err, ErrBadWrite) {
			t.Fatalf("zero-length batch block: %v", err)
		}
		var model []byte
		apply := func(off int64, data []byte) {
			for int64(len(model)) < off+int64(len(data)) {
				model = append(model, 0)
			}
			copy(model[off:], data)
		}
		fill := func(n int64) []byte {
			b := make([]byte, n)
			rng.Read(b)
			return b
		}
		for op := 0; op < 14; op++ {
			switch rng.Intn(4) {
			case 0: // write at a random (page-straddling, maybe sparse) offset
				off := rng.Int63n(int64(len(model)) + 3*ps + 1)
				data := fill(1 + rng.Int63n(4*ps))
				if _, err := blob.WriteAt(data, off); err != nil {
					t.Fatalf("trial %d op %d: write: %v", trial, op, err)
				}
				apply(off, data)
			case 1: // append
				data := fill(1 + rng.Int63n(3*ps))
				_, off, err := blob.Append(Blocks(data))
				if err != nil {
					t.Fatalf("trial %d op %d: append: %v", trial, op, err)
				}
				if off != int64(len(model)) {
					t.Fatalf("trial %d op %d: append landed at %d, model end %d", trial, op, off, len(model))
				}
				apply(off, data)
			case 2: // batched append (unaligned prefix merge path)
				blocks := make([]AppendBlock, 2+rng.Intn(3))
				for i := range blocks {
					blocks[i] = AppendBlock{Data: fill(1 + rng.Int63n(2*ps))}
				}
				vs, _, err := blob.Append(blocks)
				if err != nil || len(vs) != len(blocks) {
					t.Fatalf("trial %d op %d: batch: %d versions, %v", trial, op, len(vs), err)
				}
				// Each returned version is the snapshot after its block.
				for i, b := range blocks {
					apply(int64(len(model)), b.Data)
					buf := make([]byte, len(model)+1)
					n, err := blob.ReadAt(buf, 0, AtVersion(vs[i]))
					if err != nil || n != int64(len(model)) || !bytes.Equal(buf[:n], model) {
						t.Fatalf("trial %d op %d: batch member %d (v%d) diverges from byte model (read %d of %d, %v)", trial, op, i, vs[i], n, len(model), err)
					}
				}
			case 3: // write inside the blob, head and tail both unaligned
				span := int64(0) // head and tail share one page...
				if rng.Intn(2) == 0 {
					span = 2 + rng.Int63n(2) // ...or lie span pages apart: >= 3 pages touched
				}
				pages := int64(len(model)) / ps // whole pages the blob holds
				if pages < span+1 {
					data := fill((span + 1) * ps) // too small yet: grow instead
					if _, _, err := blob.Append(Blocks(data)); err != nil {
						t.Fatalf("trial %d op %d: growing append: %v", trial, op, err)
					}
					apply(int64(len(model)), data)
					break
				}
				head := 1 + rng.Int63n(ps-2)
				off := rng.Int63n(pages-span)*ps + head
				length := 1 + rng.Int63n(ps-1-head) // ends before the page does
				if span > 0 {
					length = (ps - head) + (span-1)*ps + 1 + rng.Int63n(ps-1) // ends inside page +span
				}
				data := fill(length)
				if _, err := blob.WriteAt(data, off); err != nil {
					t.Fatalf("trial %d op %d: inner write: %v", trial, op, err)
				}
				apply(off, data)
			}
			buf := make([]byte, len(model))
			n, err := blob.ReadAt(buf, 0)
			if err != nil {
				t.Fatalf("trial %d op %d: read: %v", trial, op, err)
			}
			if n != int64(len(model)) || !bytes.Equal(buf, model) {
				t.Fatalf("trial %d op %d: snapshot diverges from byte model (read %d of %d)", trial, op, n, len(model))
			}
		}
	}
}

// TestQuickBorrowAlwaysResolvable: for random write histories, every
// child key computed during tree building resolves to a node that the
// owning version actually created — the invariant behind lock-free
// concurrent metadata generation.
func TestQuickBorrowAlwaysResolvable(t *testing.T) {
	const ps = 64
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 60; trial++ {
		var h history
		size := int64(0)
		store := mapFetcher{}
		n := 2 + rng.Intn(12)
		for v := Version(1); v <= Version(n); v++ {
			off := size
			if size > 0 && rng.Intn(2) == 0 {
				off = rng.Int63n(size)
			}
			if rng.Intn(4) == 0 {
				off = size + rng.Int63n(100*ps) // sparse
			}
			length := 1 + rng.Int63n(6*ps)
			sz := size
			if off+length > sz {
				sz = off + length
			}
			rec := WriteRecord{Version: v, Offset: off, Length: length, SizeAfter: sz, capAfter: capacityPages(sz, ps)}
			size = sz
			h = append(h, rec)
			applyWrite(store, 1, rec, h, ps)
		}
		// Walk the final version over its whole capacity: every node
		// reference must resolve (walkTree errors on a missing node).
		last := h[len(h)-1]
		if _, err := walkTree(1, last.Version, last.capAfter, 0, last.capAfter, store, nil); err != nil {
			t.Fatalf("trial %d: unresolvable reference: %v", trial, err)
		}
		// And the same for every intermediate version.
		for v := Version(1); v < last.Version; v++ {
			rec := h[int(v)-1]
			if _, err := walkTree(1, v, rec.capAfter, 0, rec.capAfter, store, nil); err != nil {
				t.Fatalf("trial %d v%d: %v", trial, v, err)
			}
		}
	}
}
