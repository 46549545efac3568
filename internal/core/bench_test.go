package core

import (
	"fmt"
	"math/rand"
	"testing"

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

// newBenchDeployment builds a small Local-env deployment with one
// provider, so every fan-out takes its inline single-node case and no
// goroutine spawn enters the measurement.
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
