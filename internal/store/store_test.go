package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func TestFactorySpecs(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		spec string
		ok   bool
	}{
		{"mem:", true},
		{"null:", true},
		{"disk:" + dir, true},
		{"", false},
		{"mem", false},
		{"mem:extra", false},
		{"null:x", false},
		{"disk:", false},
		{"bogus:/x", false},
	}
	for _, c := range cases {
		be, err := Open(c.spec)
		if c.ok {
			if err != nil {
				t.Fatalf("Open(%q): %v", c.spec, err)
			}
			if be.Spec() == "" {
				t.Fatalf("Open(%q): empty canonical spec", c.spec)
			}
			be.Close()
			continue
		}
		if err == nil {
			t.Fatalf("Open(%q) accepted a bad spec", c.spec)
		}
		if c.spec != "" && !errors.Is(err, ErrBadSpec) {
			t.Fatalf("Open(%q) = %v, want ErrBadSpec", c.spec, err)
		}
	}
}

func TestValid(t *testing.T) {
	for _, spec := range []string{"", "mem:", "null:", "disk:/tmp/x"} {
		if err := Valid(spec); err != nil {
			t.Fatalf("Valid(%q): %v", spec, err)
		}
	}
	for _, spec := range []string{"mem", "disk:", "gcs://bucket", "mem:x"} {
		if err := Valid(spec); err == nil {
			t.Fatalf("Valid(%q) accepted a bad spec", spec)
		}
	}
}

func TestSubSpec(t *testing.T) {
	cases := []struct{ spec, name, want string }{
		{"disk:/var/bsfs", "provider-3", "disk:/var/bsfs/provider-3"},
		{"disk:rel/dir", "datanode-7", "disk:rel/dir/datanode-7"},
		{"mem:", "provider-3", "mem:"},
		{"null:", "provider-3", "null:"},
		{"", "provider-3", ""},
	}
	for _, c := range cases {
		if got := SubSpec(c.spec, c.name); got != c.want {
			t.Fatalf("SubSpec(%q, %q) = %q, want %q", c.spec, c.name, got, c.want)
		}
	}
}

// TestBackendConformance drives every backend kind through the shared
// contract: put/get/stat/delete/overwrite/walk, synthetic entries, and
// copy semantics (a backend never aliases caller buffers in either
// direction). The null backend is exempt from read-back — discarding
// is its contract — and asserted separately.
func TestBackendConformance(t *testing.T) {
	for _, kind := range []string{"mem", "disk"} {
		t.Run(kind, func(t *testing.T) {
			spec := kind + ":"
			if kind == "disk" {
				spec += t.TempDir()
			}
			be, err := Open(spec)
			if err != nil {
				t.Fatal(err)
			}
			defer be.Close()

			// Miss behaviour.
			if _, err := be.Get("missing"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get(missing) = %v, want ErrNotFound", err)
			}
			if _, ok := be.Stat("missing"); ok {
				t.Fatal("Stat found a missing key")
			}
			if err := be.Delete("missing"); err != nil {
				t.Fatalf("Delete(missing): %v", err)
			}

			// Put does not retain the caller's buffer.
			buf := []byte("hello")
			if err := be.Put("k", buf, int64(len(buf)), false); err != nil {
				t.Fatal(err)
			}
			buf[0] = 'X'
			got, err := be.Get("k")
			if err != nil || string(got) != "hello" {
				t.Fatalf("Get(k) = %q, %v (backend aliased Put buffer?)", got, err)
			}
			// Get does not return an aliased internal buffer.
			got[0] = 'Y'
			again, err := be.Get("k")
			if err != nil || string(again) != "hello" {
				t.Fatalf("Get(k) after caller mutation = %q, %v", again, err)
			}

			// Overwrite wins.
			if err := be.Put("k", []byte("world!"), 6, false); err != nil {
				t.Fatal(err)
			}
			if got, _ := be.Get("k"); string(got) != "world!" {
				t.Fatalf("overwrite lost: %q", got)
			}
			if m, ok := be.Stat("k"); !ok || m.Size != 6 || m.Synthetic {
				t.Fatalf("Stat(k) = %+v, %v", m, ok)
			}

			// Synthetic entries carry size only.
			if err := be.Put("syn", nil, 4096, true); err != nil {
				t.Fatal(err)
			}
			if data, err := be.Get("syn"); err != nil || data != nil {
				t.Fatalf("Get(syn) = %v, %v", data, err)
			}
			if m, ok := be.Stat("syn"); !ok || !m.Synthetic || m.Size != 4096 {
				t.Fatalf("Stat(syn) = %+v, %v", m, ok)
			}

			// Walk enumerates the live index.
			if be.Len() != 2 {
				t.Fatalf("Len = %d, want 2", be.Len())
			}
			seen := map[string]Meta{}
			be.Walk(func(key string, m Meta) bool {
				seen[key] = m
				return true
			})
			if len(seen) != 2 || seen["k"].Size != 6 || !seen["syn"].Synthetic {
				t.Fatalf("Walk saw %+v", seen)
			}

			// Delete removes.
			if err := be.Delete("k"); err != nil {
				t.Fatal(err)
			}
			if _, err := be.Get("k"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("deleted key still readable: %v", err)
			}
			if be.Len() != 1 {
				t.Fatalf("Len after delete = %d", be.Len())
			}
			if err := be.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := be.Compact(); err != nil {
				t.Fatal(err)
			}
			if data, err := be.Get("syn"); err != nil || data != nil {
				t.Fatalf("syn lost by compaction: %v, %v", data, err)
			}
		})
	}
}

func TestNullBackendDiscards(t *testing.T) {
	be, err := Open("null:")
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	if err := be.Put("k", []byte("gone"), 4, false); err != nil {
		t.Fatalf("null Put: %v", err)
	}
	if _, err := be.Get("k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("null Get = %v, want ErrNotFound", err)
	}
	if be.Len() != 0 {
		t.Fatalf("null Len = %d", be.Len())
	}
	if err := be.Sync(); err != nil {
		t.Fatal(err)
	}
}

func TestDiskRecoveryAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	be, err := Open("disk:" + dir)
	if err != nil {
		t.Fatal(err)
	}
	be.Put("a", []byte("alpha"), 5, false)
	be.Put("b", nil, 999, true)
	be.Put("gone", []byte("x"), 1, false)
	be.Delete("gone")
	if err := be.Close(); err != nil {
		t.Fatal(err)
	}

	be2, err := Open("disk:" + dir)
	if err != nil {
		t.Fatal(err)
	}
	defer be2.Close()
	if data, err := be2.Get("a"); err != nil || string(data) != "alpha" {
		t.Fatalf("recovered a = %q, %v", data, err)
	}
	if m, ok := be2.Stat("b"); !ok || !m.Synthetic || m.Size != 999 {
		t.Fatalf("recovered b = %+v, %v", m, ok)
	}
	if _, ok := be2.Stat("gone"); ok {
		t.Fatal("tombstoned key recovered")
	}
	if be2.Len() != 2 {
		t.Fatalf("recovered Len = %d", be2.Len())
	}
}

// TestDiskReusesTailSegment asserts the empty-segment-leak fix at the
// backend level: reopening appends to the newest segment instead of
// rolling a fresh one, and pre-existing empty segments are GCed.
func TestDiskReusesTailSegment(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 10; i++ {
		be, err := Open("disk:" + dir)
		if err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
		if err := be.Put(fmt.Sprintf("k%d", i), []byte{byte(i)}, 1, false); err != nil {
			t.Fatal(err)
		}
		if err := be.Close(); err != nil {
			t.Fatal(err)
		}
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if len(segs) != 1 {
		t.Fatalf("10 reopen+append cycles used %d segments, want 1: %v", len(segs), segs)
	}
	// Seed-era dirs with stale empty segments get cleaned up.
	for _, id := range []int{2, 3, 4} {
		if err := os.WriteFile(filepath.Join(dir, segName(id)), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	be, err := Open("disk:" + dir)
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	for i := 0; i < 10; i++ {
		if data, err := be.Get(fmt.Sprintf("k%d", i)); err != nil || !bytes.Equal(data, []byte{byte(i)}) {
			t.Fatalf("k%d after GC: %v, %v", i, data, err)
		}
	}
	segs, _ = filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	// The empty tail (seg 4) is reused as active; 2 and 3 are removed.
	if len(segs) > 2 {
		t.Fatalf("stale empty segments survived GC: %v", segs)
	}
}

// TestDiskRollsFullTail: a tail segment at the size cap is not reused.
func TestDiskRollsFullTail(t *testing.T) {
	dir := t.TempDir()
	be, err := Open("disk:" + dir)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{7}, 1<<20)
	for i := 0; i < 70; i++ { // > segMaxBytes worth
		if err := be.Put(fmt.Sprintf("k%03d", i), payload, int64(len(payload)), false); err != nil {
			t.Fatal(err)
		}
	}
	be.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if len(segs) < 2 {
		t.Fatalf("expected rolled segments, got %v", segs)
	}
	be2, err := Open("disk:" + dir)
	if err != nil {
		t.Fatal(err)
	}
	defer be2.Close()
	if data, err := be2.Get("k000"); err != nil || !bytes.Equal(data, payload) {
		t.Fatalf("cross-segment recovery failed: %v", err)
	}
}

func TestDiskTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	be, err := Open("disk:" + dir)
	if err != nil {
		t.Fatal(err)
	}
	be.Put("good", []byte("data"), 4, false)
	be.Close()

	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if len(segs) == 0 {
		t.Fatal("no segments written")
	}
	f, err := os.OpenFile(segs[0], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{1, 3, 0, 0, 0, 'x'}) // truncated record
	f.Close()

	be2, err := Open("disk:" + dir)
	if err != nil {
		t.Fatalf("recovery after torn tail: %v", err)
	}
	defer be2.Close()
	if data, err := be2.Get("good"); err != nil || string(data) != "data" {
		t.Fatalf("lost good record: %q, %v", data, err)
	}
}

// TestLogRecordReuseReplays: every record is built in one reused buffer,
// so a long record, then a short one, then a tombstone must each replay
// exactly; and a log cut inside the short record replays the long one
// alone, cut back to its end.
func TestLogRecordReuseReplays(t *testing.T) {
	big := make([]byte, 256<<10)
	for i := range big {
		big[i] = byte(i * 7)
	}
	short := []byte("ten bytes!")
	// A record is 21 bytes of framing, its key and its payload.
	bigEnd := int64(21 + len("big") + len(big))
	shortEnd := bigEnd + int64(21+len("short")+len(short))
	logEnd := shortEnd + int64(21+len("big"))
	write := func() string {
		dir := t.TempDir()
		be, err := Open("disk:" + dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, err := range []error{
			be.Put("big", big, int64(len(big)), false),
			be.Put("short", short, int64(len(short)), false),
			be.Delete("big"),
			be.Close(),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
		return filepath.Join(dir, segName(1))
	}
	reopen := func(seg string, wantSize int64) Backend {
		t.Helper()
		be, err := Open("disk:" + filepath.Dir(seg))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { be.Close() })
		if fi, err := os.Stat(seg); err != nil || fi.Size() != wantSize {
			t.Fatalf("log after replay = %v, %v; want %d bytes", fi, err, wantSize)
		}
		return be
	}

	be := reopen(write(), logEnd)
	if got, err := be.Get("short"); err != nil || !bytes.Equal(got, short) {
		t.Fatalf("short record = %q, %v", got, err)
	}
	if _, ok := be.Stat("big"); ok || be.Len() != 1 {
		t.Fatalf("tombstoned record replayed: Len = %d", be.Len())
	}

	seg := write()
	if err := os.Truncate(seg, bigEnd+(shortEnd-bigEnd)/2); err != nil {
		t.Fatal(err)
	}
	be = reopen(seg, bigEnd)
	if got, err := be.Get("big"); err != nil || !bytes.Equal(got, big) {
		t.Fatalf("long record before the cut = %d bytes, %v", len(got), err)
	}
	if _, ok := be.Stat("short"); ok || be.Len() != 1 {
		t.Fatalf("cut record replayed: Len = %d", be.Len())
	}
}

// TestDiskCompactClosesReadHandles: Get keeps one read handle per
// segment; Compact closes them before deleting the segments, and Close
// closes the rest, so no descriptor outlives the backend.
func TestDiskCompactClosesReadHandles(t *testing.T) {
	fds := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("no descriptor table to count: %v", err)
		}
		return len(ents)
	}
	dir := t.TempDir()
	use := func(be Backend, round int) {
		for i := 0; i < 4; i++ {
			key := fmt.Sprintf("k%d", i)
			if err := be.Put(key, []byte{byte(round), byte(i)}, 2, false); err != nil {
				t.Fatal(err)
			}
			if got, err := be.Get(key); err != nil || !bytes.Equal(got, []byte{byte(round), byte(i)}) {
				t.Fatalf("round %d %s = %v, %v", round, key, got, err)
			}
		}
	}
	// One open, use and close first, so whatever the runtime opens once
	// per process is counted at the start.
	be, err := Open("disk:" + dir)
	if err != nil {
		t.Fatal(err)
	}
	use(be, 0)
	be.Close()

	start := fds()
	if be, err = Open("disk:" + dir); err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 3; round++ {
		use(be, round)
		if err := be.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	use(be, 4)
	if err := be.Close(); err != nil {
		t.Fatal(err)
	}
	if n := fds(); n != start {
		t.Fatalf("%d descriptors open after Close, %d before Open", n, start)
	}
}

func TestDiskOperationsAfterClose(t *testing.T) {
	be, err := Open("disk:" + t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := be.Put("real", []byte("payload"), 7, false); err != nil {
		t.Fatal(err)
	}
	be.Close()
	if err := be.Put("k", nil, 1, true); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put after close = %v, want ErrClosed", err)
	}
	// A logged key must not reopen its segment for a read.
	if data, err := be.Get("real"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get after close = %q, %v; want ErrClosed", data, err)
	}
	if err := be.Sync(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Sync after close = %v, want ErrClosed", err)
	}
	if err := be.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}
