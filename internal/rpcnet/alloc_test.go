//go:build !race

package rpcnet

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/bsfs"
	"repro/internal/core"
)

// TestAllocWireGet pins the bytes the process allocates to return a
// file over the wire, server and client together. The providers' pages
// are gathered straight into the reader's blocks, which come from the
// service's free list, and each block is framed to the socket as it is:
// what is left is the client's result, one copy of the file, plus small
// change (1.00 bytes per byte). The pin is that figure × 1.25, the rule
// ROADMAP item 5 sets for large operations. An encoder that copies
// blocks, or a result grown by append, shows here as a multiple. The
// race runtime inflates allocation, so the file is built without it.
func TestAllocWireGet(t *testing.T) {
	const size, gets = 8 << 20, 10
	get := func(t *testing.T, c *Client, pin float64) {
		t.Helper()
		if _, err := c.Get("/f", 0); err != nil { // fill the free blocks
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
		if perByte > pin {
			t.Errorf("%.2f bytes allocated per byte returned, want <= %.2f", perByte, pin)
		}
	}
	addr, _ := serve(t, core.Options{PageSize: 256 << 10}, bsfs.Config{BlockSize: 4 << 20})
	c := dialTest(t, addr)
	if err := c.Put("/f", pattern(size)); err != nil {
		t.Fatal(err)
	}
	get(t, c, 1.25)

	// Pages read back from disk: each provider caches one 256 KiB page of
	// the file's 32, so a whole-file scan misses on 30 of them, and the
	// store reads each missed page from its log into a page of its own
	// before the gather copies it out (1.94 bytes per byte). That miss
	// path is the next one to take a copy out of; the pin is the figure
	// × 1.25 like the one above.
	t.Run("disk-misses", func(t *testing.T) {
		addr, dep := serve(t, core.Options{PageSize: 256 << 10, Provider: core.ProviderConfig{MemCapacity: 256 << 10, Store: "disk:" + t.TempDir()}}, bsfs.Config{BlockSize: 4 << 20})
		c := dialTest(t, addr)
		if err := c.Put("/f", pattern(size)); err != nil {
			t.Fatal(err)
		}
		for _, p := range dep.ProviderList() { // clean pages are evictable
			if err := p.FlushNow(); err != nil {
				t.Fatal(err)
			}
		}
		before := pageMisses(dep)
		get(t, c, 2.43)
		if missed, pages := pageMisses(dep)-before, uint64(gets+1)*size/(256<<10); missed*10 < pages*9 {
			t.Errorf("%d of %d page reads missed the providers' caches, want at least 90 %%", missed, pages)
		}
	})
}

// pageMisses sums the providers' page-cache misses.
func pageMisses(dep *core.Deployment) (n uint64) {
	for _, p := range dep.ProviderList() {
		n += p.Store().Stats().Misses
	}
	return n
}

// TestAllocWirePut pins the bytes the process allocates to take files
// over the wire, server and client together. The socket is read
// straight into the writer's pending block, a whole block is reused
// once its commit returns, the providers are handed slices of it, and
// the disk log writes each record from the page itself: what is left is
// each provider cache's own copy of a page, plus small change (1.007
// bytes per byte). The pin is that figure × 1.25, the rule ROADMAP item
// 5 sets for large operations. A file smaller than a block gets a
// buffer of its own size, never a whole block.
func TestAllocWirePut(t *testing.T) {
	const size, puts = 8 << 20, 10
	data := pattern(size)
	addr, _ := serve(t, core.Options{PageSize: 256 << 10, Provider: core.ProviderConfig{MemCapacity: 16 << 20, Store: "disk:" + t.TempDir()}}, bsfs.Config{BlockSize: 4 << 20})
	c := dialTest(t, addr)
	if err := c.Put("/warm", data); err != nil { // fill the free blocks
		t.Fatal(err)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < puts; i++ {
		if err := c.Put(fmt.Sprintf("/f%d", i), data); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&m1)
	perByte := float64(m1.TotalAlloc-m0.TotalAlloc) / (puts * size)
	t.Logf("%.3f bytes allocated per byte uploaded", perByte)
	if perByte > 1.26 {
		t.Errorf("%.3f bytes allocated per byte uploaded, want <= 1.26", perByte)
	}

	t.Run("1KiB-file-64MiB-blocks", func(t *testing.T) {
		addr, _ := serve(t, core.Options{PageSize: 256 << 10}, bsfs.Config{BlockSize: 64 << 20})
		c := dialTest(t, addr)
		if _, err := c.Stat("/"); err != nil { // the connection is served
			t.Fatal(err)
		}
		// The first upload: no block of an earlier one is free to take.
		runtime.ReadMemStats(&m0)
		if err := c.Put("/small", data[:1<<10]); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		if grew := m1.TotalAlloc - m0.TotalAlloc; grew >= 1<<20 {
			t.Errorf("%d bytes allocated for a 1 KiB upload, want < 1 MiB", grew)
		}
	})
}
