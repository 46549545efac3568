package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cluster"
)

func TestPageSpan(t *testing.T) {
	cases := []struct {
		off, length, ps, lo, hi int64
	}{
		{0, 100, 100, 0, 1},
		{0, 101, 100, 0, 2},
		{50, 100, 100, 0, 2},
		{100, 100, 100, 1, 2},
		{0, 0, 100, 0, 0},
		{250, 1, 100, 2, 3},
		{199, 2, 100, 1, 3},
	}
	for _, c := range cases {
		lo, hi := pageSpan(c.off, c.length, c.ps)
		if lo != c.lo || hi != c.hi {
			t.Errorf("pageSpan(%d,%d,%d) = %d,%d want %d,%d", c.off, c.length, c.ps, lo, hi, c.lo, c.hi)
		}
	}
}

func TestCapacityPages(t *testing.T) {
	cases := []struct{ size, ps, want int64 }{
		{0, 100, 1},
		{1, 100, 1},
		{100, 100, 1},
		{101, 100, 2},
		{201, 100, 4},
		{400, 100, 4},
		{401, 100, 8},
		{100 * 1000, 100, 1024},
	}
	for _, c := range cases {
		if got := capacityPages(c.size, c.ps); got != c.want {
			t.Errorf("capacityPages(%d,%d) = %d, want %d", c.size, c.ps, got, c.want)
		}
	}
}

func TestNodeEncodingRoundTrip(t *testing.T) {
	in := treeNode{left: nodeRef{blob: 3, ver: 7}}
	inner, _, err := decodeNode(in.appendEncoded(nil, false), false, nil)
	if err != nil || inner.left != in.left || inner.right != in.right || inner.providers != nil {
		t.Fatalf("inner round trip: %+v, %v", inner, err)
	}
	lf := treeNode{providers: []cluster.NodeID{3, 9, 12}}
	ids := []cluster.NodeID{1}
	leaf, ids, err := decodeNode(lf.appendEncoded(nil, true), true, ids)
	if err != nil || len(leaf.providers) != 3 || leaf.providers[2] != 12 || len(ids) != 4 {
		t.Fatalf("leaf round trip: %+v, %v, %v", leaf, ids, err)
	}
	if _, _, err := decodeNode(nil, false, nil); err == nil {
		t.Fatal("empty node decoded")
	}
	if _, _, err := decodeNode([]byte{9}, false, nil); err == nil {
		t.Fatal("bad tag decoded")
	}
	if _, _, err := decodeNode(lf.appendEncoded(nil, true), false, nil); err == nil {
		t.Fatal("leaf decoded at an inner range")
	}
	if _, _, err := decodeNode([]byte{tagInner, 0}, false, nil); err == nil {
		t.Fatal("short inner decoded")
	}
	if _, _, err := decodeNode([]byte{tagLeaf, 2, 0}, true, nil); err == nil {
		t.Fatal("short leaf decoded")
	}
}

// mapFetcher is a plain map of encoded nodes as a nodeSource that
// caches nothing.
type mapFetcher map[string][]byte

func (m mapFetcher) cached(nodeKey) (treeNode, bool) { return treeNode{}, false }
func (m mapFetcher) remember(nodeKey, treeNode)      {}
func (m mapFetcher) fetch(keys, vals [][]byte) {
	for i, k := range keys {
		vals[i] = m[string(k)]
	}
}

// applyWrite runs the pure metadata build for one write and merges the
// nodes into store; placement assigns page i to provider (base+i)%np.
func applyWrite(store mapFetcher, blob BlobID, rec WriteRecord, h history, ps int64) {
	if rec.blob == 0 {
		rec.blob = blob
	}
	// Tests build records without Blob; normalize the shared history in
	// place so borrow() resolves to the same key space.
	for i := range h {
		if h[i].blob == 0 {
			h[i].blob = blob
		}
	}
	lo, hi := pageSpan(rec.Offset, rec.Length, ps)
	placement := pagePlacement{lo: lo, sets: make([][]cluster.NodeID, hi-lo)}
	for p := lo; p < hi; p++ {
		placement.sets[p-lo] = []cluster.NodeID{cluster.NodeID(p % 7)}
	}
	buildNodesFromHistory(store, rec, h, ps, placement)
}

// refModel tracks, per page, which version last wrote it — the ground
// truth walkTree must agree with.
type refModel struct {
	pages map[int64]Version
	size  int64
}

func (m *refModel) apply(rec WriteRecord, ps int64) {
	lo, hi := pageSpan(rec.Offset, rec.Length, ps)
	for p := lo; p < hi; p++ {
		m.pages[p] = rec.Version
	}
	if rec.SizeAfter > m.size {
		m.size = rec.SizeAfter
	}
}

func checkAgainstRef(t *testing.T, store mapFetcher, ref *refModel, blob BlobID, v Version, h history, ps int64, lo, hi int64) {
	t.Helper()
	rec, _ := h.record(v)
	leaves, err := walkTree(blob, v, rec.capAfter, lo, hi, store, nil)
	if err != nil {
		t.Fatalf("walkTree(v=%d, [%d,%d)): %v", v, lo, hi, err)
	}
	got := map[int64]Version{}
	for _, l := range leaves {
		if len(l.Providers) == 0 {
			got[l.Page] = 0
		} else {
			got[l.Page] = l.Version
		}
	}
	end := hi
	if rec.capAfter < end {
		end = rec.capAfter
	}
	for p := lo; p < end; p++ {
		want := ref.pages[p]
		if g, ok := got[p]; !ok {
			if want != 0 {
				t.Fatalf("v=%d page %d missing from walk (want version %d)", v, p, want)
			}
		} else if g != want {
			t.Fatalf("v=%d page %d resolved to version %d, want %d", v, p, g, want)
		}
	}
}

func TestTreeSingleWrite(t *testing.T) {
	const ps = 100
	store := mapFetcher{}
	var h history
	rec := WriteRecord{Version: 1, Offset: 0, Length: 300, SizeAfter: 300, capAfter: capacityPages(300, ps)}
	h = append(h, rec)
	applyWrite(store, 1, rec, h, ps)
	ref := &refModel{pages: map[int64]Version{}}
	ref.apply(rec, ps)
	checkAgainstRef(t, store, ref, 1, 1, h, ps, 0, 4)
}

func TestTreeSequentialAppends(t *testing.T) {
	const ps = 100
	store := mapFetcher{}
	var h history
	ref := &refModel{pages: map[int64]Version{}}
	size := int64(0)
	for v := Version(1); v <= 20; v++ {
		length := int64(150)
		rec := WriteRecord{
			Version: v, Offset: size, Length: length,
			SizeAfter: size + length, capAfter: capacityPages(size+length, ps),
		}
		size += length
		h = append(h, rec)
		applyWrite(store, 1, rec, h, ps)
		ref.apply(rec, ps)
		// Every version must read consistently right after its write.
		checkAgainstRef(t, store, ref, 1, v, h, ps, 0, rec.capAfter)
	}
}

func TestTreeSparseWriteCreatesSpine(t *testing.T) {
	// Write pages [0,2), then a sparse write at page 100: capacity jumps
	// 2 -> 128 and the spine prefixes [0,4), [0,8)...[0,64) must exist so
	// old data remains reachable under the new root.
	const ps = 100
	store := mapFetcher{}
	var h history
	ref := &refModel{pages: map[int64]Version{}}
	r1 := WriteRecord{Version: 1, Offset: 0, Length: 200, SizeAfter: 200, capAfter: capacityPages(200, ps)}
	h = append(h, r1)
	applyWrite(store, 1, r1, h, ps)
	ref.apply(r1, ps)

	r2 := WriteRecord{Version: 2, Offset: 100 * ps, Length: ps, SizeAfter: 101 * ps, capAfter: capacityPages(101*ps, ps)}
	h = append(h, r2)
	applyWrite(store, 1, r2, h, ps)
	ref.apply(r2, ps)

	// Old data readable through the new tree; the hole reads as zeros.
	checkAgainstRef(t, store, ref, 1, 2, h, ps, 0, r2.capAfter)
	// Old version still intact.
	checkAgainstRef(t, store, ref, 1, 1, h, ps, 0, r1.capAfter)
}

func TestTreeOldVersionsImmutable(t *testing.T) {
	const ps = 100
	store := mapFetcher{}
	var h history
	recs := []WriteRecord{}
	ref := []*refModel{}
	model := &refModel{pages: map[int64]Version{}}
	size := int64(0)
	for v := Version(1); v <= 10; v++ {
		off := int64((v - 1) % 5 * ps) // overlapping rewrites
		length := int64(2 * ps)
		sz := size
		if off+length > sz {
			sz = off + length
		}
		rec := WriteRecord{Version: v, Offset: off, Length: length, SizeAfter: sz, capAfter: capacityPages(sz, ps)}
		size = sz
		h = append(h, rec)
		applyWrite(store, 1, rec, h, ps)
		model.apply(rec, ps)
		cp := &refModel{pages: map[int64]Version{}, size: model.size}
		for k, vv := range model.pages {
			cp.pages[k] = vv
		}
		recs = append(recs, rec)
		ref = append(ref, cp)
	}
	// Every historical version still reads exactly as it did when
	// published (versioning = immutable snapshots).
	for i, rec := range recs {
		checkAgainstRef(t, store, ref[i], 1, rec.Version, h, ps, 0, rec.capAfter)
	}
}

func TestTreeRandomizedAgainstReference(t *testing.T) {
	const ps = 64
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 30; trial++ {
		store := mapFetcher{}
		var h history
		ref := &refModel{pages: map[int64]Version{}}
		size := int64(0)
		nWrites := 3 + rng.Intn(25)
		for v := Version(1); v <= Version(nWrites); v++ {
			var off int64
			switch rng.Intn(3) {
			case 0: // append
				off = size
			case 1: // overwrite inside
				if size > 0 {
					off = rng.Int63n(size)
				}
			case 2: // sparse write past the end
				off = size + rng.Int63n(50*ps)
			}
			length := 1 + rng.Int63n(8*ps)
			sz := size
			if off+length > sz {
				sz = off + length
			}
			rec := WriteRecord{Version: v, Offset: off, Length: length, SizeAfter: sz, capAfter: capacityPages(sz, ps)}
			size = sz
			h = append(h, rec)
			applyWrite(store, 1, rec, h, ps)
			ref.apply(rec, ps)
		}
		last := h[len(h)-1]
		// Whole-range check plus a few random sub-ranges.
		checkAgainstRef(t, store, ref, 1, last.Version, h, ps, 0, last.capAfter)
		for i := 0; i < 5; i++ {
			lo := rng.Int63n(last.capAfter)
			hi := lo + 1 + rng.Int63n(last.capAfter-lo)
			checkAgainstRef(t, store, ref, 1, last.Version, h, ps, lo, hi)
		}
	}
}

func TestBorrowPrefersLatestIntersecting(t *testing.T) {
	const ps = 100
	var h history
	// v1 writes pages [0,4); v2 writes [2,4); v3 writes [6,8).
	add := func(v Version, offPages, lenPages, sizePages int64) {
		h = append(h, WriteRecord{
			Version: v, Offset: offPages * ps, Length: lenPages * ps,
			SizeAfter: sizePages * ps, capAfter: capacityPages(sizePages*ps, ps),
		})
	}
	add(1, 0, 4, 4)
	add(2, 2, 2, 4)
	add(3, 6, 2, 8)
	// For v3, child [0,4) must borrow from v2 (latest intersecting),
	// not v1.
	bi := indexOf(h, ps)
	if _, got := bi.lookup(2, pageRange{off: 0, count: 4}); got != 2 {
		t.Fatalf("borrow([0,4)) = %d, want 2", got)
	}
	// Child [4,6) was never written: hole.
	if _, got := bi.lookup(2, pageRange{off: 4, count: 2}); got != 0 {
		t.Fatalf("borrow([4,2)) = %d, want 0 (hole)", got)
	}
}

func TestWalkTreeMissingNode(t *testing.T) {
	store := mapFetcher{} // nothing stored
	_, err := walkTree(1, 1, 4, 0, 4, store, nil)
	if err == nil {
		t.Fatal("expected error for missing metadata")
	}
}

func TestNodeKeyFormat(t *testing.T) {
	k := nodeKey{blob: 3, version: 9, pages: pageRange{off: 16, count: 8}}
	if got := string(k.appendTo(nil)); got != "m/3/9/16/8" {
		t.Fatalf("key = %q", got)
	}
	if pageKey(3, 9, 5) != "p/3/9/5" {
		t.Fatalf("pageKey = %q", pageKey(3, 9, 5))
	}
	hole := PageLoc{Page: 1}
	if hole.Key() != "" {
		t.Fatal("hole page produced a key")
	}
}

func TestCreatedNodeCountIsLogarithmic(t *testing.T) {
	// A one-page append to a large blob must create O(log cap) nodes,
	// not O(cap) — the whole point of subtree sharing.
	const ps = 100
	var h history
	size := int64(1 << 20 * ps) // 2^20 pages
	h = append(h, WriteRecord{Version: 1, Offset: 0, Length: size, SizeAfter: size, capAfter: capacityPages(size, ps)})
	rec := WriteRecord{Version: 2, Offset: size, Length: ps, SizeAfter: size + ps, capAfter: capacityPages(size+ps, ps)}
	h = append(h, rec)
	placement := pagePlacement{lo: 1 << 20, sets: [][]cluster.NodeID{{0}}}
	rec.blob = 1
	nodes := make(map[string][]byte)
	buildNodesFromHistory(nodes, rec, h, ps, placement)
	if len(nodes) > 64 {
		t.Fatalf("single-page append created %d nodes; want O(log n)", len(nodes))
	}
	for k := range nodes {
		if len(k) == 0 {
			t.Fatal("empty node key")
		}
	}
	_ = fmt.Sprintf("%d", len(nodes))
}

// TestKeyFormatsPinned pins the byte-exact rendering of node and page
// keys against the historical fmt.Sprintf formats. Both name durable
// content — node keys address DHT trees, page keys address provider
// stores — so a rendering change silently orphans everything stored
// under the old format.
func TestKeyFormatsPinned(t *testing.T) {
	nodeKeys := []nodeKey{
		{},
		{blob: 1, version: 1, pages: pageRange{off: 0, count: 1}},
		{blob: 7, version: 42, pages: pageRange{off: 512, count: 128}},
		{blob: 1<<63 + 9, version: 1<<64 - 1, pages: pageRange{off: 1 << 40, count: 1 << 20}},
	}
	for _, k := range nodeKeys {
		want := fmt.Sprintf("m/%d/%d/%d/%d", uint64(k.blob), uint64(k.version), k.pages.off, k.pages.count)
		if got := string(k.appendTo(nil)); got != want {
			t.Errorf("NodeKey%+v.appendTo(nil) = %q, want %q", k, got, want)
		}
		// appendTo must extend dst, preserving any existing prefix.
		pre := []byte("x")
		if got := string(k.appendTo(pre)); got != "x"+want {
			t.Errorf("appendTo prefix broken: %q", got)
		}
	}
	type pk struct {
		blob BlobID
		v    Version
		page int64
	}
	pageKeys := []pk{
		{0, 0, 0},
		{1, 1, 0},
		{7, 42, 513},
		{1<<63 + 9, 1<<64 - 1, 1 << 50},
	}
	for _, c := range pageKeys {
		want := fmt.Sprintf("p/%d/%d/%d", uint64(c.blob), uint64(c.v), c.page)
		if got := pageKey(c.blob, c.v, c.page); got != want {
			t.Errorf("pageKey(%d, %d, %d) = %q, want %q", c.blob, c.v, c.page, got, want)
		}
	}
}
