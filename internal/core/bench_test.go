package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
)

// BenchmarkAppendAtHistory measures one 4-page append onto a blob the
// given number of such appends precede (preloaded in batches: the
// preload is not what is measured): a write's cost must not depend on
// how much history precedes it (ns/op at 50000 within 1.5x of 500).
func BenchmarkAppendAtHistory(b *testing.B) {
	batch := make([]AppendBlock, 100)
	for i := range batch {
		batch[i] = AppendBlock{Size: 16 << 10}
	}
	for _, versions := range []int{500, 5000, 50000} {
		b.Run(fmt.Sprint(versions), func(b *testing.B) {
			_, c := newBenchDeployment(b, Options{PageSize: 4 << 10})
			blob, err := c.CreateBlob(0)
			if err != nil {
				b.Fatal(err)
			}
			for done := 0; done < versions; done += len(batch) {
				if _, _, err := blob.Append(batch); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := blob.Append(batch[:1]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOverwriteAtHistory is the same question for a one-page
// overwrite at a random page of a 64Ki-page blob that the given number
// of such overwrites precede: the geometry is fixed, so history length
// is all that varies, and the borrows reach into old versions.
func BenchmarkOverwriteAtHistory(b *testing.B) {
	const ps, pages = 4 << 10, 64 << 10
	for _, versions := range []int{500, 50000} {
		b.Run(fmt.Sprint(versions), func(b *testing.B) {
			_, c := newBenchDeployment(b, Options{PageSize: ps})
			blob, err := c.CreateBlob(0)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := blob.Append(SyntheticBlocks(pages * ps)); err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			b.ReportAllocs()
			for i := -versions; i < b.N; i++ {
				if i == 0 {
					b.ResetTimer()
				}
				if _, err := blob.WriteAt(nil, rng.Int63n(pages)*ps, Synthetic(ps)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSoloRead256K is a closed-loop reader alone on the machine:
// 256 KiB latest-version reads at random offsets of a 128 MiB blob in
// 16 KiB pages on 4 RAM providers, median latency reported, alone and
// beside a goroutine that keeps a second core awake. Every page is
// resident, so the gather copies them on the reader's goroutine and the
// two medians agree (within 10 %); a gather that spawns goroutines pays
// an idle-core wake-up per read when alone and is 30-50 % slower there.
func BenchmarkSoloRead256K(b *testing.B) {
	const size, readSize = 128 << 20, 256 << 10
	d, err := NewDeployment(cluster.NewLocal(5, 0), Options{PageSize: 16 << 10, ProviderNodes: []cluster.NodeID{1, 2, 3, 4}})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	blob, err := d.NewClient(0).CreateBlob(0)
	if err != nil {
		b.Fatal(err)
	}
	chunk := make([]byte, 1<<20)
	for off := 0; off < size; off += len(chunk) {
		if _, _, err := blob.Append(Blocks(chunk)); err != nil {
			b.Fatal(err)
		}
	}
	for _, spinner := range []bool{false, true} {
		name := "alone"
		if spinner {
			name = "beside-spinner"
		}
		b.Run(name, func(b *testing.B) {
			var stop atomic.Bool
			defer stop.Store(true)
			if spinner {
				go func() {
					for !stop.Load() {
					}
				}()
			}
			rng := rand.New(rand.NewSource(1))
			buf := make([]byte, readSize)
			lat := make([]time.Duration, b.N)
			b.SetBytes(readSize)
			b.ResetTimer()
			for i := range lat {
				off := rng.Int63n((size-readSize)/8) * 8
				t0 := time.Now()
				if n, err := blob.ReadAt(buf, off); err != nil || n != readSize {
					b.Fatalf("read %d, %v", n, err)
				}
				lat[i] = time.Since(t0)
			}
			b.StopTimer()
			slices.Sort(lat)
			b.ReportMetric(float64(lat[len(lat)/2].Nanoseconds())/1e3, "p50-us")
		})
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
			SizeAfter: size + length, capAfter: capacityPages(size+length, ps),
		}
		size += length
		h = append(h, rec)
		applyWrite(store, 1, rec, h, ps)
	}
	last := h[len(h)-1]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := int64(i%200) * 256
		leaves, err := walkTree(1, last.Version, last.capAfter, lo, lo+256, store, nil)
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
	id, _ := vm.createBlob(1, 256<<10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tk, err := ticket1(vm, 1, id, -1, 64<<20)
		if err != nil {
			b.Fatal(err)
		}
		if err := publish1(vm, bg, 1, id, tk.Record.Version); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNodeEncoding measures the metadata wire codec.
func BenchmarkNodeEncoding(b *testing.B) {
	leaf := leafNode{providers: []cluster.NodeID{1, 2, 3}}
	inner := innerNode{leftVersion: 12, rightVersion: 9}
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
		_ = nodeKey{blob: 1, version: Version(i), pages: pageRange{off: int64(i) &^ 7, count: 8}}.String()
	}
	_ = fmt.Sprint()
}
