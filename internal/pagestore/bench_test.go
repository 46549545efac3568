package pagestore

import (
	"fmt"
	"testing"
)

// BenchmarkPutGet measures the in-memory store's hot path.
func BenchmarkPutGet(b *testing.B) {
	s := MustOpen(Config{})
	payload := make([]byte, 256<<10)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := fmt.Sprintf("p/%d", i%1024)
		if err := s.Put(key, payload); err != nil {
			b.Fatal(err)
		}
		if _, _, err := s.Get(key); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSyntheticPut measures the size-only path used at cluster
// scale (no payload copies).
func BenchmarkSyntheticPut(b *testing.B) {
	s := MustOpen(Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.PutSynthetic(fmt.Sprintf("p/%d", i%65536), 256<<10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvictionChurn measures LRU behaviour at full capacity.
func BenchmarkEvictionChurn(b *testing.B) {
	s := MustOpen(Config{MemCapacity: 64 << 20})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := fmt.Sprintf("p/%d", i)
		s.PutSynthetic(key, 1<<20)
		if i%16 == 0 {
			keys, _ := s.TakeDirty(16 << 20)
			s.CommitFlush(keys)
		}
	}
}

// BenchmarkWALAppend measures durable append throughput.
func BenchmarkWALAppend(b *testing.B) {
	dir := b.TempDir()
	s, err := Open(Config{Spec: "disk:" + dir})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	payload := make([]byte, 64<<10)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := fmt.Sprintf("p/%d", i)
		s.Put(key, payload)
		keys, _ := s.TakeDirty(0)
		if err := s.CommitFlush(keys); err != nil {
			b.Fatal(err)
		}
	}
}
