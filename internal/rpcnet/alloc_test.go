//go:build !race

package rpcnet

import (
	"runtime"
	"testing"

	"repro/internal/bsfs"
	"repro/internal/core"
)

// poolMisses is how many of the chunks a served stream takes from the
// sync.Pool may be fresh allocations: a chunk put back is the next one
// taken, so only the first (see race_test.go for the race runtime).
const poolMisses = 1

// TestAllocWireGet pins the bytes the process allocates to return a
// file over the wire, server and client together: the client's result
// and the reader's block buffers, one copy of the file each, plus small
// change. An encoder that copies chunks, or a result grown by append,
// shows here as a multiple. The race runtime inflates allocation, so
// the file is built without it.
func TestAllocWireGet(t *testing.T) {
	const size, gets = 8 << 20, 10
	addr, _ := serve(t, core.Options{PageSize: 256 << 10}, bsfs.Config{BlockSize: 4 << 20})
	c := dialTest(t, addr)
	if err := c.Put("/f", pattern(size)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("/f", 0); err != nil { // warm the chunk pool
		t.Fatal(err)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < gets; i++ {
		if got, err := c.Get("/f", 0); err != nil || len(got) != size {
			t.Fatalf("get: %d bytes, %v", len(got), err)
		}
	}
	runtime.ReadMemStats(&m1)
	perByte := float64(m1.TotalAlloc-m0.TotalAlloc) / (gets * size)
	t.Logf("%.2f bytes allocated per byte returned", perByte)
	if perByte > 2.5 {
		t.Errorf("%.2f bytes allocated per byte returned, want <= 2.5", perByte)
	}
}
