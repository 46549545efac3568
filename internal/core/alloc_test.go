package core

import "testing"

// Allocation-regression assertions for the two hot paths this package
// optimizes: the append protocol and the cached read. Each threshold is
// half the allocation count measured before the zero-alloc work
// (sharded metadata cache, pooled page buffers, byte-rendered keys), so
// a change that gives back the win fails here instead of silently
// rotting the benchmarks. CI runs these outside the -race legs: the
// race runtime inflates allocation counts and would trip them falsely.
//
// Pre-optimization baselines (allocs/op, Local env, fan-outs inline):
//
//	AppendSynthetic 221   AppendReal 236
//	CachedReadSynthetic 438   CachedReadReal 165
func assertAllocs(t *testing.T, got, max float64) {
	t.Helper()
	if got > max {
		t.Errorf("%.1f allocs/op, want <= %.0f (2x under the pre-optimization baseline)", got, max)
	}
}

func TestAllocAppendSynthetic(t *testing.T) {
	_, c := newBenchDeployment(t, Options{PageSize: 256 << 10})
	blob, err := c.CreateBlob(0)
	if err != nil {
		t.Fatal(err)
	}
	blocks := SyntheticBlocks(1 << 20) // 4 pages per version
	assertAllocs(t, testing.AllocsPerRun(300, func() {
		if _, _, err := blob.Append(blocks); err != nil {
			t.Fatal(err)
		}
	}), 110)
}

func TestAllocAppendReal(t *testing.T) {
	_, c := newBenchDeployment(t, Options{PageSize: 64 << 10})
	blob, err := c.CreateBlob(0)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 256<<10) // 4 pages per version
	assertAllocs(t, testing.AllocsPerRun(300, func() {
		if _, _, err := blob.Append(Blocks(payload)); err != nil {
			t.Fatal(err)
		}
	}), 118)
}

func TestAllocCachedReadSynthetic(t *testing.T) {
	_, c := newBenchDeployment(t, Options{PageSize: 256 << 10})
	blob, err := c.CreateBlob(0)
	if err != nil {
		t.Fatal(err)
	}
	vs, _, err := blob.Append(SyntheticBlocks(64 << 20)) // 256 pages
	if err != nil {
		t.Fatal(err)
	}
	v := vs[0]
	assertAllocs(t, testing.AllocsPerRun(300, func() {
		n, err := blob.ReadAt(nil, 0, Synthetic(16<<20), AtVersion(v))
		if err != nil || n != 16<<20 {
			t.Fatalf("read %d, %v", n, err)
		}
	}), 219)
}

func TestAllocCachedReadReal(t *testing.T) {
	_, c := newBenchDeployment(t, Options{PageSize: 64 << 10})
	blob, err := c.CreateBlob(0)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 1<<20)
	vs, _, err := blob.Append(Blocks(payload))
	if err != nil {
		t.Fatal(err)
	}
	v := vs[0]
	buf := make([]byte, 1<<20)
	assertAllocs(t, testing.AllocsPerRun(300, func() {
		n, err := blob.ReadAt(buf, 0, AtVersion(v))
		if err != nil || n != 1<<20 {
			t.Fatalf("read %d, %v", n, err)
		}
	}), 82)
}
