package core

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
)

// flushers counts the goroutines in a provider's flush loop, started
// or not.
func flushers() int {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	count := 0
	for _, g := range strings.Split(string(buf[:n]), "\n\n") {
		if strings.Contains(g, "(*Provider).flushLoop") {
			count++
		}
	}
	return count
}

// waitIdle polls until no flusher runs and no page of ps is dirty.
func waitIdle(t *testing.T, ps []*Provider) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		var dirty int64
		for _, p := range ps {
			dirty += p.Store().DirtyBytes()
		}
		n := flushers()
		if n == 0 && dirty == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d flushers running, %d bytes dirty", n, dirty)
		}
	}
}

// newIdleDeployment is newLocalDeployment once earlier tests' flushers
// have finished; the fresh deployment must run none.
func newIdleDeployment(t *testing.T, opts Options) *Deployment {
	t.Helper()
	waitIdle(t, nil)
	d := newLocalDeployment(t, opts)
	if n := flushers(); n != 0 {
		t.Fatalf("an idle deployment runs %d flushers, want 0", n)
	}
	return d
}

// TestFlushersRunOnDemand: a put starts its provider's flusher when
// none runs, and the flusher exits once the pages are clean, so an idle
// deployment holds no goroutine for them.
func TestFlushersRunOnDemand(t *testing.T) {
	d := newIdleDeployment(t, Options{PageSize: 4 << 10, Replication: 1, ProviderNodes: []cluster.NodeID{1, 2, 3, 4}})
	blob, err := d.NewClient(0).CreateBlob(0)
	if err != nil {
		t.Fatal(err)
	}
	block := make([]byte, 64<<10) // 16 pages, 4 per provider
	for i := 0; i < 16; i++ {
		if _, _, err := blob.Append(Blocks(block)); err != nil {
			t.Fatal(err)
		}
		if n := flushers(); n > 4 {
			t.Fatalf("append %d: %d flushers for 4 providers", i, n)
		}
	}
	waitIdle(t, d.ProviderList())
}

// TestStoppedProviderStaysDirty: after Stop a put starts no flusher and
// its page stays dirty; FlushNow still persists it.
func TestStoppedProviderStaysDirty(t *testing.T) {
	const ps = 4 << 10
	// Room for one page: once flushed, the others are evicted, so
	// reading them back proves they reached the backend.
	d := newIdleDeployment(t, Options{PageSize: ps, ProviderNodes: []cluster.NodeID{1},
		Provider: ProviderConfig{MemCapacity: ps, Store: "mem:"}})
	p := d.ProviderList()[0]
	p.Stop()
	blob, err := d.NewClient(0).CreateBlob(0)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("0123456789abcdef"), 4*ps/16)
	if _, _, err := blob.Append(Blocks(data)); err != nil {
		t.Fatal(err)
	}
	if n, dirty := flushers(), p.Store().DirtyBytes(); n != 0 || dirty != 4*ps {
		t.Fatalf("after Stop: %d flushers, %d bytes dirty; want 0 and %d", n, dirty, 4*ps)
	}
	if err := p.FlushNow(); err != nil {
		t.Fatal(err)
	}
	if dirty := p.Store().DirtyBytes(); dirty != 0 {
		t.Fatalf("%d bytes dirty after FlushNow", dirty)
	}
	got := make([]byte, len(data))
	if _, err := blob.ReadAt(got, 0); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read back: %v, equal %v", err, bytes.Equal(got, data))
	}
	if st := p.Store().Stats(); st.Misses == 0 {
		t.Fatalf("no page came from the backend: %+v", st)
	}
}
