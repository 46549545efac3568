package pagestore

import (
	"bytes"
	"path/filepath"
	"testing"
)

// TestCloseFlushesDirty is the dirty-data-loss regression: a clean
// shutdown must persist every page the store has accepted, including
// entries sitting in the dirty queue and entries taken by an in-flight
// flush batch whose CommitFlush never ran. The seed code closed the
// log without writing either, losing all unflushed pages.
func TestCloseFlushesDirty(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Spec: "disk:" + dir})
	if err != nil {
		t.Fatal(err)
	}
	// Dirty, never taken by a flush batch.
	if err := s.Put("queued", []byte("queued-bytes")); err != nil {
		t.Fatal(err)
	}
	s.PutSynthetic("queued-syn", 4096)
	// Taken by a flush batch that never commits (flush daemon killed
	// mid-write): still dirty, must not be lost either.
	if err := s.Put("inflight", []byte("inflight-bytes")); err != nil {
		t.Fatal(err)
	}
	if keys, _ := s.TakeDirty(14); len(keys) == 0 {
		t.Fatal("TakeDirty returned nothing")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Config{Spec: "disk:" + dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for key, want := range map[string]string{
		"queued":   "queued-bytes",
		"inflight": "inflight-bytes",
	} {
		data, _, err := s2.Get(key)
		if err != nil {
			t.Fatalf("clean shutdown lost %q: %v", key, err)
		}
		if string(data) != want {
			t.Fatalf("%q recovered as %q, want %q", key, data, want)
		}
	}
	if _, m, err := s2.Get("queued-syn"); err != nil || !m.synthetic || m.Size != 4096 {
		t.Fatalf("clean shutdown lost synthetic entry: %+v, %v", m, err)
	}
}

// TestGetDoesNotAliasCache is the cache-corruption regression: the
// slice Get returns must be the caller's to scribble on. The seed code
// handed out the internal cache slice, so a caller mutation corrupted
// the cache and whatever the next flush wrote to the log.
func TestGetDoesNotAliasCache(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Spec: "disk:" + dir})
	if err != nil {
		t.Fatal(err)
	}
	want := []byte("pristine")
	if err := s.Put("k", want); err != nil {
		t.Fatal(err)
	}
	got, _, err := s.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		got[i] = 'X' // caller scribbles on its buffer
	}
	again, _, err := s.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, want) {
		t.Fatalf("caller mutation corrupted the cache: %q", again)
	}
	// The corruption must not reach the log either.
	keys, _ := s.TakeDirty(0)
	if err := s.CommitFlush(keys); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(Config{Spec: "disk:" + dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	logged, _, err := s2.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(logged, want) {
		t.Fatalf("caller mutation reached the log: %q", logged)
	}
	// The fault-in path must not alias either: evict, read back, mutate,
	// re-read.
	faulted, _, err := s2.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	for i := range faulted {
		faulted[i] = 'Y'
	}
	final, _, err := s2.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(final, want) {
		t.Fatalf("fault-in path aliased the cache: %q", final)
	}
}

// TestRestartDoesNotLeakSegments is the empty-segment-leak regression:
// reopening a store must not grow the segment count without bound. The
// seed code rolled a brand-new segment on every open even when nothing
// was written, so restart loops accumulated empty seg-*.wal files
// forever.
func TestRestartDoesNotLeakSegments(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Spec: "disk:" + dir})
	if err != nil {
		t.Fatal(err)
	}
	s.Put("k", []byte("v"))
	keys, _ := s.TakeDirty(0)
	if err := s.CommitFlush(keys); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	const restarts = 12
	for i := 0; i < restarts; i++ {
		s, err := Open(Config{Spec: "disk:" + dir})
		if err != nil {
			t.Fatalf("restart %d: %v", i, err)
		}
		if data, _, err := s.Get("k"); err != nil || string(data) != "v" {
			t.Fatalf("restart %d lost data: %q, %v", i, data, err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) > 2 {
		t.Fatalf("%d restarts leaked segments: %d seg-*.wal files (want <= 2): %v",
			restarts, len(segs), segs)
	}
	// And a write-after-restart still lands in a live segment.
	s, err = Open(Config{Spec: "disk:" + dir})
	if err != nil {
		t.Fatal(err)
	}
	s.Put("k2", []byte("v2"))
	keys, _ = s.TakeDirty(0)
	if err := s.CommitFlush(keys); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(Config{Spec: "disk:" + dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for key, want := range map[string]string{"k": "v", "k2": "v2"} {
		if data, _, err := s2.Get(key); err != nil || string(data) != want {
			t.Fatalf("%q after reuse: %q, %v", key, data, err)
		}
	}
}
