package dht

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
)

// BenchmarkRingLookup measures key routing.
func BenchmarkRingLookup(b *testing.B) {
	r := NewRing(nodes(24), 32, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.lookup(fmt.Sprintf("m/1/%d/0/8", i))
	}
}

// BenchmarkBatchPutGet measures batched metadata rounds of tree-build
// size (512 nodes per write of a 64 MB block).
func BenchmarkBatchPutGet(b *testing.B) {
	env := cluster.NewLocal(32, 8)
	c := NewCluster(nodes(24), 32, 1)
	cl := c.NewClient(env, 0)
	kvs := make(map[string][]byte, 512)
	keys := make([]string, 0, 512)
	for i := 0; i < 512; i++ {
		k := fmt.Sprintf("m/1/1/%d/1", i)
		kvs[k] = make([]byte, 17)
		keys = append(keys, k)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cl.BatchPut(kvs); err != nil {
			b.Fatal(err)
		}
		got, err := cl.BatchGet(keys)
		if err != nil || len(got) != 512 {
			b.Fatalf("%d, %v", len(got), err)
		}
	}
}

// BenchmarkRingLookupMissHeavy stresses the duplicate-skip walk: few
// nodes with many vnodes and full replication force LookupN to scan
// (and wrap) past many points whose node is already in the result
// before it finds the next distinct one.
func BenchmarkRingLookupMissHeavy(b *testing.B) {
	r := NewRing(nodes(4), 128, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := r.LookupN(fmt.Sprintf("p/1/%d/7", i), 4)
		if len(out) != 4 {
			b.Fatal("short lookup")
		}
	}
}

// BenchmarkRingLookupAppend is the zero-alloc variant of the hot
// routing path (shared scratch, byte keys).
func BenchmarkRingLookupAppend(b *testing.B) {
	r := NewRing(nodes(24), 32, 3)
	var scratch []cluster.NodeID
	var key []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key = append(key[:0], 'p', '/')
		key = appendInt(key, i)
		scratch = r.lookupHash(scratch[:0], hash64Bytes(key), 3)
		if len(scratch) != 3 {
			b.Fatal("short lookup")
		}
	}
}

func appendInt(dst []byte, i int) []byte {
	if i >= 10 {
		dst = appendInt(dst, i/10)
	}
	return append(dst, byte('0'+i%10))
}
