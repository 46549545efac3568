package pagestore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"repro/internal/store"
)

func TestPutGetRoundTrip(t *testing.T) {
	s := MustOpen(Config{})
	if err := s.Put("a", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	data, meta, err := s.GetInto("a", nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "hello" {
		t.Fatalf("data = %q", data)
	}
	if meta.Size != 5 || meta.synthetic || !meta.Resident || !meta.dirty {
		t.Fatalf("meta = %+v", meta)
	}
}

func TestPutCopiesInput(t *testing.T) {
	s := MustOpen(Config{})
	buf := []byte("abc")
	s.Put("k", buf)
	buf[0] = 'X'
	data, _, _ := s.GetInto("k", nil)
	if string(data) != "abc" {
		t.Fatalf("store aliased caller buffer: %q", data)
	}
}

func TestGetMissing(t *testing.T) {
	s := MustOpen(Config{})
	if _, _, err := s.GetInto("nope", nil); err == nil {
		t.Fatal("expected error for missing key")
	}
	if _, ok := s.Peek("nope"); ok {
		t.Fatal("Peek found missing key")
	}
}

func TestSyntheticEntry(t *testing.T) {
	s := MustOpen(Config{})
	if err := s.PutSynthetic("s", 1<<20); err != nil {
		t.Fatal(err)
	}
	data, meta, err := s.GetInto("s", nil)
	if err != nil {
		t.Fatal(err)
	}
	if data != nil {
		t.Fatal("synthetic entry returned data")
	}
	if meta.Size != 1<<20 || !meta.synthetic {
		t.Fatalf("meta = %+v", meta)
	}
	if err := s.PutSynthetic("neg", -1); err == nil {
		t.Fatal("negative size accepted")
	}
}

func TestOverwriteReplacesEntry(t *testing.T) {
	s := MustOpen(Config{})
	s.Put("k", []byte("one"))
	s.Put("k", []byte("four"))
	data, meta, _ := s.GetInto("k", nil)
	if string(data) != "four" || meta.Size != 4 {
		t.Fatalf("got %q size %d", data, meta.Size)
	}
	if s.Stats().Entries != 1 {
		t.Fatalf("Entries = %d", s.Stats().Entries)
	}
}

func TestDelete(t *testing.T) {
	s := MustOpen(Config{})
	s.Put("k", []byte("v"))
	s.Delete("k")
	s.Delete("k") // idempotent
	if s.Stats().Entries != 0 {
		t.Fatal("entry survived delete")
	}
}

// tombstoneFails is a backend whose Delete fails, as a disk's would
// when it cannot append the tombstone.
type tombstoneFails struct{ store.Backend }

var errTombstone = errors.New("tombstone write failed")

func (tombstoneFails) Delete(string) error { return errTombstone }

// TestDeleteKeepsEntryOnBackendError: a page the backend holds is
// deleted only once its tombstone is written. A failed one leaves the
// entry readable and returns the error, so the store never reports a
// drop that a restart would undo; a closed store deletes nothing.
func TestDeleteKeepsEntryOnBackendError(t *testing.T) {
	s, err := Open(Config{Spec: "mem:"})
	if err != nil {
		t.Fatal(err)
	}
	s.Put("k", []byte("v"))
	keys, _ := s.TakeDirty(0)
	if err := s.CommitFlush(keys); err != nil {
		t.Fatal(err)
	}
	mem := s.backend
	s.backend = tombstoneFails{mem}
	if err := s.Delete("k"); !errors.Is(err, errTombstone) {
		t.Fatalf("Delete with a failing backend = %v, want %v", err, errTombstone)
	}
	if data, _, err := s.GetInto("k", nil); err != nil || string(data) != "v" {
		t.Fatalf("after a failed Delete: %q, %v; want the entry kept", data, err)
	}
	if _, ok := mem.Stat("k"); !ok {
		t.Fatal("the backend lost the entry")
	}
	s.backend = mem
	if err := s.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if s.Has("k") {
		t.Fatal("entry survived Delete")
	}
	if _, ok := mem.Stat("k"); ok {
		t.Fatal("the backend kept the entry")
	}
	s.Put("j", []byte("w"))
	s.Close()
	if err := s.Delete("j"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Delete on a closed store = %v, want ErrClosed", err)
	}
	if s.slotOf("j") == 0 {
		t.Fatal("Delete on a closed store dropped the entry")
	}
}

func TestFlushLifecycle(t *testing.T) {
	s := MustOpen(Config{})
	s.Put("a", []byte("aaaa"))
	s.Put("b", []byte("bb"))
	if got := s.DirtyBytes(); got != 6 {
		t.Fatalf("DirtyBytes = %d, want 6", got)
	}
	keys, total := s.TakeDirty(0)
	if len(keys) != 2 || total != 6 {
		t.Fatalf("TakeDirty = %v, %d", keys, total)
	}
	// FIFO order.
	if got := s.batchKeys(keys); got[0] != "a" || got[1] != "b" {
		t.Fatalf("flush order = %v", got)
	}
	if err := s.CommitFlush(keys); err != nil {
		t.Fatal(err)
	}
	if got := s.DirtyBytes(); got != 0 {
		t.Fatalf("DirtyBytes after flush = %d", got)
	}
	if _, m, _ := s.GetInto("a", nil); m.dirty {
		t.Fatal("entry still dirty after CommitFlush")
	}
}

func TestTakeDirtyBatchLimit(t *testing.T) {
	s := MustOpen(Config{})
	for i := 0; i < 10; i++ {
		s.Put(fmt.Sprintf("k%d", i), make([]byte, 10))
	}
	keys, total := s.TakeDirty(35)
	if total > 35 || len(keys) != 3 {
		t.Fatalf("TakeDirty(35) = %v (%d bytes)", keys, total)
	}
	// At least one entry is returned even when it exceeds the budget.
	s2 := MustOpen(Config{})
	s2.Put("big", make([]byte, 100))
	keys, total = s2.TakeDirty(10)
	if len(keys) != 1 || total != 100 {
		t.Fatalf("oversized single entry: %v (%d)", keys, total)
	}
}

func TestTakeDirtySkipsDeleted(t *testing.T) {
	s := MustOpen(Config{})
	s.Put("a", []byte("x"))
	s.Delete("a")
	keys, _ := s.TakeDirty(0)
	if len(keys) != 0 {
		t.Fatalf("TakeDirty returned deleted keys: %v", keys)
	}
}

func TestEvictionRespectsCapacityAndPinsDirty(t *testing.T) {
	s := MustOpen(Config{MemCapacity: 100})
	// Dirty entries may exceed capacity: they are pinned.
	for i := 0; i < 5; i++ {
		s.PutSynthetic(fmt.Sprintf("d%d", i), 40)
	}
	if st := s.Stats(); st.MemBytes != 200 {
		t.Fatalf("dirty MemBytes = %d, want 200 (pinned)", st.MemBytes)
	}
	// After flushing, eviction brings occupancy under the cap.
	keys, _ := s.TakeDirty(0)
	s.CommitFlush(keys)
	if st := s.Stats(); st.MemBytes > 100 {
		t.Fatalf("MemBytes after flush = %d, want <= 100", st.MemBytes)
	}
	// The evicted ones are the oldest (LRU).
	if m, _ := s.Peek("d0"); m.Resident {
		t.Fatal("oldest entry survived eviction")
	}
	if m, _ := s.Peek("d4"); !m.Resident {
		t.Fatal("newest entry was evicted")
	}
}

func TestGetFaultsSyntheticBackIn(t *testing.T) {
	s := MustOpen(Config{MemCapacity: 100})
	s.PutSynthetic("a", 60)
	s.PutSynthetic("b", 60)
	keys, _ := s.TakeDirty(0)
	s.CommitFlush(keys)
	// "a" must have been evicted.
	if m, _ := s.Peek("a"); m.Resident {
		t.Fatal("a still resident")
	}
	_, meta, err := s.GetInto("a", nil)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Resident {
		t.Fatal("GetInto should report pre-call residency (miss)")
	}
	if m, _ := s.Peek("a"); !m.Resident {
		t.Fatal("a not resident after read-through")
	}
	st := s.Stats()
	if st.Misses != 1 {
		t.Fatalf("misses = %d, want 1", st.Misses)
	}
}

func TestEvictedRealEntryWithoutLogFails(t *testing.T) {
	s := MustOpen(Config{MemCapacity: 10})
	s.Put("a", bytes.Repeat([]byte{1}, 8))
	s.Put("b", bytes.Repeat([]byte{2}, 8))
	keys, _ := s.TakeDirty(0)
	s.CommitFlush(keys)
	_, _, err := s.GetInto("a", nil)
	if err == nil {
		t.Fatal("expected ErrEvicted for evicted real entry with no WAL")
	}
}

func TestWALPersistenceAndRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Spec: "disk:" + dir})
	if err != nil {
		t.Fatal(err)
	}
	s.Put("x", []byte("persisted"))
	s.PutSynthetic("y", 12345)
	s.Put("gone", []byte("tmp"))
	keys, _ := s.TakeDirty(0)
	if err := s.CommitFlush(keys); err != nil {
		t.Fatal(err)
	}
	s.Delete("gone")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Config{Spec: "disk:" + dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	data, meta, err := s2.GetInto("x", nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "persisted" {
		t.Fatalf("recovered %q", data)
	}
	if meta.Resident {
		t.Fatal("recovered entry claimed resident before first read")
	}
	_, meta, err = s2.GetInto("y", nil)
	if err != nil || !meta.synthetic || meta.Size != 12345 {
		t.Fatalf("synthetic recovery: %+v, %v", meta, err)
	}
	if _, ok := s2.Peek("gone"); ok {
		t.Fatal("tombstoned key recovered")
	}
}

func TestWALEvictionReadBack(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Spec: "disk:" + dir, MemCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Put("a", bytes.Repeat([]byte{7}, 12))
	keys, _ := s.TakeDirty(0)
	s.CommitFlush(keys)
	s.Put("b", bytes.Repeat([]byte{8}, 12)) // evicts a after flush
	keys, _ = s.TakeDirty(0)
	s.CommitFlush(keys)
	if m, _ := s.Peek("a"); m.Resident {
		t.Fatal("a should be evicted")
	}
	data, _, err := s.GetInto("a", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, bytes.Repeat([]byte{7}, 12)) {
		t.Fatalf("read-back mismatch: %v", data)
	}
}

// TestGetResidentInto: a resident entry is a hit like any other, its
// bytes the caller's own; an evicted, missing or closed one reports
// "would have to fault" and changes nothing — no miss, no fault-in.
func TestGetResidentInto(t *testing.T) {
	s, err := Open(Config{Spec: "disk:" + t.TempDir(), MemCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	s.Put("a", bytes.Repeat([]byte{7}, 12))
	keys, _ := s.TakeDirty(0)
	s.CommitFlush(keys)
	s.Put("b", bytes.Repeat([]byte{8}, 12)) // evicts a after flush
	keys, _ = s.TakeDirty(0)
	s.CommitFlush(keys)

	var staged []byte
	alloc := func(n int64) []byte { staged = make([]byte, n); return staged }
	data, m, ok := s.GetResidentInto([]byte("b"), alloc)
	if !ok || !bytes.Equal(data, bytes.Repeat([]byte{8}, 12)) || m.Size != 12 || &data[0] != &staged[0] {
		t.Fatalf("resident b: ok=%v data=%v meta=%+v (staged in alloc's buffer: %v)", ok, data, m, len(staged) > 0 && &data[0] == &staged[0])
	}
	data[0] = 0xFF // the caller's copy: the cache must not see it
	if again, _, _ := s.GetInto("b", nil); again[0] != 8 {
		t.Fatal("GetResidentInto aliased the cache")
	}
	before := s.Stats()
	for _, key := range []string{"a", "never-stored"} {
		if _, _, ok := s.GetResidentInto([]byte(key), alloc); ok {
			t.Fatalf("%q reported resident", key)
		}
	}
	if after := s.Stats(); after != before {
		t.Fatalf("a refused lookup changed the store: %+v -> %+v", before, after)
	}
	if m, _ := s.Peek("a"); m.Resident {
		t.Fatal("a refused lookup faulted a in")
	}
	s.Close()
	if _, _, ok := s.GetResidentInto([]byte("b"), alloc); ok {
		t.Fatal("a closed store served a read")
	}
}

func TestWALTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Spec: "disk:" + dir})
	if err != nil {
		t.Fatal(err)
	}
	s.Put("good", []byte("data"))
	keys, _ := s.TakeDirty(0)
	s.CommitFlush(keys)
	s.Close()

	// Corrupt the tail: append garbage bytes simulating a torn write.
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

	s2, err := Open(Config{Spec: "disk:" + dir})
	if err != nil {
		t.Fatalf("recovery after torn tail: %v", err)
	}
	defer s2.Close()
	data, _, err := s2.GetInto("good", nil)
	if err != nil || string(data) != "data" {
		t.Fatalf("lost good record: %q, %v", data, err)
	}
}

func TestWALCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Spec: "disk:" + dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		s.Put("churn", bytes.Repeat([]byte{byte(i)}, 1000))
		keys, _ := s.TakeDirty(0)
		s.CommitFlush(keys)
	}
	s.Put("keep", []byte("stay"))
	keys, _ := s.TakeDirty(0)
	s.CommitFlush(keys)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	// After compaction only live data remains on disk.
	var total int64
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	for _, p := range segs {
		fi, _ := os.Stat(p)
		total += fi.Size()
	}
	if total > 3000 {
		t.Fatalf("log still %d bytes after compaction", total)
	}
	data, _, err := s.GetInto("churn", nil)
	if err != nil || !bytes.Equal(data, bytes.Repeat([]byte{49}, 1000)) {
		t.Fatalf("churn after compact: %v", err)
	}
	data, _, _ = s.GetInto("keep", nil)
	if string(data) != "stay" {
		t.Fatal("keep lost by compaction")
	}
	s.Close()

	// Recovery still works after compaction.
	s2, err := Open(Config{Spec: "disk:" + dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	data, _, err = s2.GetInto("keep", nil)
	if err != nil || string(data) != "stay" {
		t.Fatalf("post-compaction recovery: %q, %v", data, err)
	}
}

func TestWALSegmentRolling(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Spec: "disk:" + dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Write ~130 MB in 1 MB entries to force rolling past 64 MB.
	payload := bytes.Repeat([]byte{0xAB}, 1<<20)
	for i := 0; i < 130; i++ {
		s.Put(fmt.Sprintf("k%03d", i), payload)
		keys, _ := s.TakeDirty(0)
		if err := s.CommitFlush(keys); err != nil {
			t.Fatal(err)
		}
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if len(segs) < 3 {
		t.Fatalf("expected >=3 segments, got %d", len(segs))
	}
	data, _, err := s.GetInto("k000", nil)
	if err != nil || !bytes.Equal(data, payload) {
		t.Fatalf("cross-segment read failed: %v", err)
	}
}

// TestQuickAgainstReference drives the store with random operations and
// compares visible state with a flat map.
func TestQuickAgainstReference(t *testing.T) {
	type op struct {
		Kind byte
		Key  uint8
		Val  uint16
	}
	f := func(ops []op) bool {
		s := MustOpen(Config{MemCapacity: 4096})
		ref := map[string][]byte{}
		for _, o := range ops {
			key := fmt.Sprintf("k%d", o.Key%32)
			switch o.Kind % 4 {
			case 0: // put
				val := bytes.Repeat([]byte{byte(o.Val)}, int(o.Val%256))
				s.Put(key, val)
				ref[key] = val
			case 1: // delete
				s.Delete(key)
				delete(ref, key)
			case 2: // flush
				keys, _ := s.TakeDirty(1024)
				s.CommitFlush(keys)
			case 3: // get & compare
				want, ok := ref[key]
				got, _, err := s.GetInto(key, nil)
				if ok != (err == nil) {
					return false
				}
				if ok && !bytes.Equal(got, want) {
					return false
				}
			}
		}
		// Final sweep: every reference key must match.
		for k, want := range ref {
			got, _, err := s.GetInto(k, nil)
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		return s.Stats().Entries == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(42))}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsCounters(t *testing.T) {
	s := MustOpen(Config{})
	s.Put("a", []byte("1"))
	s.GetInto("a", nil)
	s.GetInto("a", nil)
	st := s.Stats()
	if st.Hits != 2 || st.Misses != 0 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// segBytes returns the total size of all WAL segments under dir.
func segBytes(t *testing.T, dir string) int64 {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, seg := range segs {
		st, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		total += st.Size()
	}
	return total
}

func TestWALCrashMidAppendRecovery(t *testing.T) {
	// A crash can tear the final append at any byte: inside the header,
	// the key, the payload, or the checksum. Whatever the cut point,
	// Open must recover every complete record and drop only the torn
	// one — and the store must keep working after recovery. The record
	// length is measured from the segment file rather than assumed, so
	// the sweep tracks the wire format.
	probe := func() int64 {
		dir := t.TempDir()
		s, err := Open(Config{Spec: "disk:" + dir})
		if err != nil {
			t.Fatal(err)
		}
		s.Put("torn", bytes.Repeat([]byte{9}, 64))
		keys, _ := s.TakeDirty(0)
		if err := s.CommitFlush(keys); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return segBytes(t, dir)
	}
	full := int(probe())
	cuts := []int{1, 4, 7, 15, full / 2, full - 4, full - 1}
	for _, keep := range cuts {
		t.Run(fmt.Sprintf("keep=%d", keep), func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(Config{Spec: "disk:" + dir})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 4; i++ {
				s.Put(fmt.Sprintf("k%d", i), []byte{byte(i), byte(i)})
			}
			s.PutSynthetic("syn", 999)
			keys, _ := s.TakeDirty(0)
			if err := s.CommitFlush(keys); err != nil {
				t.Fatal(err)
			}
			segs, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
			if err != nil || len(segs) != 1 {
				t.Fatalf("segments: %v, %v", segs, err)
			}
			seg := segs[0]
			st, err := os.Stat(seg)
			if err != nil {
				t.Fatal(err)
			}
			intact := st.Size()
			s.Put("torn", bytes.Repeat([]byte{9}, 64))
			keys, _ = s.TakeDirty(0)
			s.CommitFlush(keys)
			s.Close()

			// The crash: the final append only partially reached disk.
			if err := os.Truncate(seg, intact+int64(keep)); err != nil {
				t.Fatal(err)
			}

			s2, err := Open(Config{Spec: "disk:" + dir})
			if err != nil {
				t.Fatalf("recovery after torn append: %v", err)
			}
			for i := 0; i < 4; i++ {
				data, _, err := s2.GetInto(fmt.Sprintf("k%d", i), nil)
				if err != nil || !bytes.Equal(data, []byte{byte(i), byte(i)}) {
					t.Fatalf("complete record k%d lost: %v, %v", i, data, err)
				}
			}
			if _, m, err := s2.GetInto("syn", nil); err != nil || !m.synthetic || m.Size != 999 {
				t.Fatalf("synthetic record lost: %+v, %v", m, err)
			}
			if _, ok := s2.Peek("torn"); ok {
				t.Fatal("torn record resurrected")
			}
			// Post-recovery appends must survive another reopen.
			s2.Put("after", []byte("ok"))
			keys, _ = s2.TakeDirty(0)
			s2.CommitFlush(keys)
			s2.Close()
			s3, err := Open(Config{Spec: "disk:" + dir})
			if err != nil {
				t.Fatal(err)
			}
			defer s3.Close()
			if data, _, err := s3.GetInto("after", nil); err != nil || string(data) != "ok" {
				t.Fatalf("post-recovery append lost: %q, %v", data, err)
			}
		})
	}
}
