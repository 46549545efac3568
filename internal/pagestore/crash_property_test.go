package pagestore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// TestCrashRecoveryProperty drives a backed store through random
// interleavings of put, overwrite-while-flushing, delete, get (which
// evicts under a tight MemCapacity), TakeDirty, and CommitFlush, while
// maintaining two reference models:
//
//   - live: everything the store has accepted and not deleted. A clean
//     Close must persist exactly this (flush-on-close contract).
//   - durable: everything a completed CommitFlush has written, minus
//     later deletes. A crash (no Close) must recover exactly this.
//
// Each seed runs the same deterministic op stream twice — once ending
// in Close, once abandoned — and asserts the reopened index matches the
// corresponding model, including a torn-tail variant where garbage is
// appended to the tail segment before the crash reopen.
func TestCrashRecoveryProperty(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		for _, clean := range []bool{true, false} {
			mode := "crash"
			if clean {
				mode = "clean"
			}
			t.Run(fmt.Sprintf("seed=%d/%s", seed, mode), func(t *testing.T) {
				runCrashRecoverySequence(t, seed, clean)
			})
		}
	}
}

type modelEntry struct {
	data      []byte
	size      int64
	synthetic bool
}

func runCrashRecoverySequence(t *testing.T, seed int64, clean bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	s, err := Open(Config{Spec: "disk:" + dir, MemCapacity: 64}) // tight: forces evictions
	if err != nil {
		t.Fatal(err)
	}

	live := map[string]modelEntry{}
	durable := map[string]modelEntry{}
	inflight := map[string]bool{} // taken by a batch and unchanged since
	var batches [][]Taken

	key := func() string { return fmt.Sprintf("k%d", rng.Intn(8)) }

	const ops = 400
	for i := 0; i < ops; i++ {
		switch p := rng.Intn(100); {
		case p < 35: // put (overwrites hit in-flight entries too)
			k := key()
			val := make([]byte, 1+rng.Intn(32))
			rng.Read(val)
			if err := s.Put(k, val); err != nil {
				t.Fatalf("op %d: Put: %v", i, err)
			}
			live[k] = modelEntry{data: append([]byte(nil), val...), size: int64(len(val))}
			delete(inflight, k) // a pending commit now skips this key
		case p < 45: // synthetic put
			k := key()
			size := int64(1 + rng.Intn(128))
			if err := s.PutSynthetic(k, size); err != nil {
				t.Fatalf("op %d: PutSynthetic: %v", i, err)
			}
			live[k] = modelEntry{size: size, synthetic: true}
			delete(inflight, k)
		case p < 55: // delete
			k := key()
			s.Delete(k)
			delete(live, k)
			delete(durable, k) // tombstone reaches the backend immediately
			delete(inflight, k)
		case p < 70: // get: exercises LRU churn and backend fault-in
			k := key()
			data, m, err := s.GetInto(k, nil)
			want, ok := live[k]
			if !ok {
				if !errors.Is(err, ErrNotFound) {
					t.Fatalf("op %d: GetInto(%q) = %v, want ErrNotFound", i, k, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("op %d: GetInto(%q): %v (live model has it)", i, k, err)
			}
			if want.synthetic {
				if data != nil || !m.synthetic || m.Size != want.size {
					t.Fatalf("op %d: GetInto(%q) = %v, %+v, want synthetic size %d", i, k, data, m, want.size)
				}
			} else if !bytes.Equal(data, want.data) {
				t.Fatalf("op %d: GetInto(%q) = %q, want %q", i, k, data, want.data)
			}
		case p < 85: // start a flush batch
			keys, _ := s.TakeDirty(int64(1 + rng.Intn(64)))
			if len(keys) > 0 {
				batches = append(batches, keys)
				for _, k := range s.batchKeys(keys) {
					inflight[k] = true
				}
			}
		default: // commit a random pending batch
			if len(batches) == 0 {
				continue
			}
			j := rng.Intn(len(batches))
			batch := batches[j]
			batches = append(batches[:j], batches[j+1:]...)
			if err := s.CommitFlush(batch); err != nil {
				t.Fatalf("op %d: CommitFlush: %v", i, err)
			}
			for _, k := range s.batchKeys(batch) {
				if inflight[k] { // not overwritten or deleted since taken
					durable[k] = live[k]
					delete(inflight, k)
				}
			}
		}
	}

	var want map[string]modelEntry
	if clean {
		// Close flushes everything: queued dirty entries AND abandoned
		// in-flight batches. The reopened index must match the live model.
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		want = live
	} else {
		// Crash: abandon s without Close. Only committed flushes survive.
		want = durable
	}

	checkRecovered(t, dir, want)

	if !clean {
		// Torn-tail variant: the crash tore a final append. Recovery must
		// truncate it away without losing any committed record.
		segs, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
		if err != nil || len(segs) == 0 {
			t.Fatalf("segments: %v, %v", segs, err)
		}
		tail := segs[len(segs)-1]
		f, err := os.OpenFile(tail, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		garbage := make([]byte, 1+rng.Intn(40))
		rng.Read(garbage)
		garbage[0] = 1 // plausible record kind, torn body
		if _, err := f.Write(garbage); err != nil {
			t.Fatal(err)
		}
		f.Close()
		checkRecovered(t, dir, want)
	}
}

// checkRecovered reopens the store at dir and asserts its index and
// contents match the model exactly.
func checkRecovered(t *testing.T, dir string, want map[string]modelEntry) {
	t.Helper()
	s, err := Open(Config{Spec: "disk:" + dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s.Close()
	if got := s.Stats().Recovered; got != len(want) {
		t.Fatalf("recovered %d entries, want %d", got, len(want))
	}
	for k, m := range want {
		data, meta, err := s.GetInto(k, nil)
		if err != nil {
			t.Fatalf("recovered store lost %q: %v", k, err)
		}
		if m.synthetic {
			if data != nil || !meta.synthetic || meta.Size != m.size {
				t.Fatalf("recovered %q = %v, %+v, want synthetic size %d", k, data, meta, m.size)
			}
			continue
		}
		if !bytes.Equal(data, m.data) {
			t.Fatalf("recovered %q = %q, want %q", k, data, m.data)
		}
	}
}
