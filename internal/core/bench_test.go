package core

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
)

// BenchmarkBuildNodesSequentialAppend measures metadata generation for
// one 64 MB block append (256 pages at 256 KB) into a large blob — the
// write path's CPU cost per block.
func BenchmarkBuildNodesSequentialAppend(b *testing.B) {
	const ps = 256 << 10
	var h history
	size := int64(0)
	for v := Version(1); v <= 1000; v++ {
		length := int64(64 << 20)
		h = append(h, WriteRecord{
			Version: v, Offset: size, Length: length,
			SizeAfter: size + length, CapAfter: capacityPages(size+length, ps),
		})
		size += length
	}
	rec := WriteRecord{
		Version: 1001, Offset: size, Length: 64 << 20,
		SizeAfter: size + 64<<20, CapAfter: capacityPages(size+64<<20, ps),
	}
	h = append(h, rec)
	lo, hi := pageSpan(rec.Offset, rec.Length, ps)
	placement := pagePlacement{lo: lo, sets: make([][]cluster.NodeID, hi-lo)}
	for p := lo; p < hi; p++ {
		placement.sets[p-lo] = []cluster.NodeID{cluster.NodeID(p % 200)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nodes := make(map[string][]byte, 2*(hi-lo)+8)
		buildNodes(nodes, rec, h, ps, placement)
		if len(nodes) < 256 {
			b.Fatal("too few nodes")
		}
	}
}

// BenchmarkWalkTree measures resolving one 64 MB block's leaves out of
// a 1000-block blob — the read path's metadata cost.
func BenchmarkWalkTree(b *testing.B) {
	const ps = 256 << 10
	store := mapFetcher{}
	var h history
	size := int64(0)
	for v := Version(1); v <= 200; v++ {
		length := int64(64 << 20)
		rec := WriteRecord{
			Version: v, Offset: size, Length: length,
			SizeAfter: size + length, CapAfter: capacityPages(size+length, ps),
		}
		size += length
		h = append(h, rec)
		applyWrite(store, 1, rec, h, ps)
	}
	last := h[len(h)-1]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := int64(i%200) * 256
		leaves, err := walkTree(1, last.Version, last.CapAfter, lo, lo+256, store, nil)
		if err != nil || len(leaves) != 256 {
			b.Fatalf("%d leaves, %v", len(leaves), err)
		}
	}
}

// BenchmarkLocalWriteRead measures the full client write+read path on
// a Local env with real bytes (no simulation): the library's intrinsic
// overhead per 1 MB operation.
func BenchmarkLocalWriteRead(b *testing.B) {
	env := cluster.NewLocal(8, 4)
	d, err := NewDeployment(env, Options{
		PageSize:      64 << 10,
		ProviderNodes: []cluster.NodeID{1, 2, 3, 4, 5, 6, 7},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	c := d.NewClient(0)
	payload := make([]byte, 1<<20)
	buf := make([]byte, 1<<20)
	b.SetBytes(2 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blob, err := c.CreateBlob(0)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := blob.WriteAt(payload, 0); err != nil {
			b.Fatal(err)
		}
		if _, err := blob.ReadAt(buf, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// newBenchDeployment builds a small Local-env deployment with one
// provider, so every fan-out takes its inline single-node case and no
// goroutine spawn enters the count — the configuration the allocation
// benchmarks and assertions (alloc_test.go) measure.
func newBenchDeployment(tb testing.TB, opts Options) (*Deployment, *Client) {
	tb.Helper()
	env := cluster.NewLocal(4, 2)
	opts.ProviderNodes = []cluster.NodeID{1}
	d, err := NewDeployment(env, opts)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { d.Close() })
	return d, d.NewClient(0)
}

// BenchmarkAppendSynthetic measures the full append protocol per block
// (ticket, placement, scatter accounting, metadata build+put, publish)
// without payload bytes — the hot path of every sim experiment.
func BenchmarkAppendSynthetic(b *testing.B) {
	_, c := newBenchDeployment(b, Options{PageSize: 256 << 10})
	blob, err := c.CreateBlob(0)
	if err != nil {
		b.Fatal(err)
	}
	blocks := SyntheticBlocks(1 << 20) // 4 pages per version
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := blob.Append(blocks); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendReal measures the append protocol with real payload
// bytes — page assembly and the scatter data path included.
func BenchmarkAppendReal(b *testing.B) {
	_, c := newBenchDeployment(b, Options{PageSize: 64 << 10})
	blob, err := c.CreateBlob(0)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 256<<10) // 4 pages per version
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := blob.Append(Blocks(payload)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCachedReadSynthetic measures the read protocol against a hot
// metadata cache (tree walk all cache hits, synthetic pages, no data
// movement) — the per-op cost E1/E2-scale runs pay millions of times.
func BenchmarkCachedReadSynthetic(b *testing.B) {
	_, c := newBenchDeployment(b, Options{PageSize: 256 << 10})
	blob, err := c.CreateBlob(0)
	if err != nil {
		b.Fatal(err)
	}
	vs, _, err := blob.Append(SyntheticBlocks(64 << 20)) // 256 pages
	if err != nil {
		b.Fatal(err)
	}
	v := vs[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := blob.ReadAt(nil, 0, Synthetic(16<<20), AtVersion(v))
		if err != nil || n != 16<<20 {
			b.Fatalf("read %d, %v", n, err)
		}
	}
}

// BenchmarkCachedReadReal is BenchmarkCachedReadSynthetic with real
// bytes: the gather staging and copy-out included.
func BenchmarkCachedReadReal(b *testing.B) {
	_, c := newBenchDeployment(b, Options{PageSize: 64 << 10})
	blob, err := c.CreateBlob(0)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 1<<20)
	vs, _, err := blob.Append(Blocks(payload))
	if err != nil {
		b.Fatal(err)
	}
	v := vs[0]
	buf := make([]byte, 1<<20)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := blob.ReadAt(buf, 0, AtVersion(v))
		if err != nil || n != 1<<20 {
			b.Fatalf("read %d, %v", n, err)
		}
	}
}

// BenchmarkVersionManagerTicket measures ticket issue throughput (the
// centralized serialization point of every write).
func BenchmarkVersionManagerTicket(b *testing.B) {
	env := cluster.NewLocal(4, 0)
	vm := NewVersionManager(env, 0)
	id, _ := vm.CreateBlob(1, 256<<10)
	since := Version(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tk, err := ticket1(vm, 1, id, -1, 64<<20, since)
		if err != nil {
			b.Fatal(err)
		}
		since = tk.Record.Version
		if err := publish1(vm, bg, 1, id, tk.Record.Version); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNodeEncoding measures the metadata wire codec.
func BenchmarkNodeEncoding(b *testing.B) {
	leaf := Leaf{Providers: []cluster.NodeID{1, 2, 3}}
	inner := Inner{LeftVersion: 12, RightVersion: 9}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lb := encodeLeaf(leaf)
		ib := encodeInner(inner)
		if _, _, _, err := decodeNode(lb); err != nil {
			b.Fatal(err)
		}
		if _, _, _, err := decodeNode(ib); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPageKeyFormat measures key rendering (hot on both paths).
func BenchmarkPageKeyFormat(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = pageKey(BlobID(i%100), Version(i%1000), int64(i))
		_ = NodeKey{Blob: 1, Version: Version(i), Range: PageRange{Off: int64(i) &^ 7, Count: 8}}.String()
	}
	_ = fmt.Sprint()
}
