package hdfs

import (
	"fmt"
	"testing"
)

// BenchmarkChunkKey measures the per-chunk key formatting on the hot
// path (every replica put/get/delete renders one).
func BenchmarkChunkKey(b *testing.B) {
	var sink string
	for i := 0; i < b.N; i++ {
		sink = chunkKey(uint64(i))
	}
	_ = sink
}

// TestChunkKeyMatchesSprintf pins the strconv rendering to the old
// format — store keys are persistent (WAL-backed deployments), so the
// representation must not drift.
func TestChunkKeyMatchesSprintf(t *testing.T) {
	for _, id := range []uint64{0, 1, 9, 10, 12345, 1<<63 + 7, ^uint64(0)} {
		if got, want := chunkKey(id), fmt.Sprintf("c/%d", id); got != want {
			t.Fatalf("chunkKey(%d) = %q, want %q", id, got, want)
		}
	}
}
