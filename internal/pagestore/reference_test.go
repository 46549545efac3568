package pagestore

import (
	"container/list"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/store"
)

// refStore is the page store as a map of entries and a container/list
// LRU: the straightforward implementation the slot table must match op
// for op. Its dirty queue and flush batches name entries, not keys, so
// that, as in Store, an overwrite keeps its place in the queue while a
// key deleted and put again is flushed at its new place. Close flushes
// the in-flight remainder in key order; Store uses slot order, so
// TestMatchesReference compares that pass as a set.
type refStore struct {
	cfg        Config
	items      map[string]*refEntry
	lru        *list.List // clean resident entries, front = most recent
	dirtyQ     []*refEntry
	memBytes   int64
	dirtyBytes int64
	backend    store.Backend
	closed     bool

	hits, misses, evictions uint64
}

type refEntry struct {
	key       string
	data      []byte // nil if synthetic or evicted
	size      int64
	synthetic bool
	dirty     bool
	resident  bool
	flushing  bool
	lruElem   *list.Element // non-nil while clean+resident
	logged    bool          // present in the backend
}

func (e *refEntry) meta() Meta {
	return Meta{Size: e.size, synthetic: e.synthetic, Resident: e.resident, dirty: e.dirty}
}

func newRefStore(cfg Config, backend store.Backend) *refStore {
	return &refStore{cfg: cfg, items: map[string]*refEntry{}, lru: list.New(), backend: backend}
}

func (s *refStore) put(key string, data []byte, size int64, synthetic bool) error {
	if s.closed {
		return ErrClosed
	}
	e, ok := s.items[key]
	if ok {
		s.unaccount(e)
	} else {
		e = &refEntry{}
		s.items[key] = e
	}
	*e = refEntry{key: key, data: data, size: size, synthetic: synthetic, dirty: true, resident: true, logged: e.logged}
	s.memBytes += size
	s.dirtyBytes += size
	s.dirtyQ = append(s.dirtyQ, e)
	s.evict()
	return nil
}

func (s *refStore) Put(key string, data []byte) error {
	return s.put(key, append([]byte{}, data...), int64(len(data)), false)
}

func (s *refStore) PutSynthetic(key string, size int64) error {
	if size < 0 {
		return fmt.Errorf("pagestore: negative size %d", size)
	}
	return s.put(key, nil, size, true)
}

func (s *refStore) GetInto(key string, alloc func(int64) []byte) ([]byte, Meta, error) {
	if s.closed {
		return nil, Meta{}, ErrClosed
	}
	e, ok := s.items[key]
	if !ok {
		return nil, Meta{}, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	m := e.meta()
	if e.resident {
		s.hit(e)
		return copyOut(e.data, alloc), m, nil
	}
	s.misses++
	if !e.synthetic {
		if s.backend == nil || !e.logged {
			return nil, m, fmt.Errorf("%w: %q", ErrEvicted, e.key)
		}
		data, err := s.backend.Get(e.key)
		if err != nil {
			return nil, m, err
		}
		e.data = data
	}
	e.resident = true
	s.memBytes += e.size
	if !e.dirty {
		e.lruElem = s.lru.PushFront(e)
	}
	out := copyOut(e.data, alloc)
	s.evict()
	return out, m, nil
}

func (s *refStore) GetResidentInto(key []byte, alloc func(int64) []byte) ([]byte, Meta, bool) {
	e := s.items[string(key)]
	if s.closed || e == nil || !e.resident {
		return nil, Meta{}, false
	}
	s.hit(e)
	return copyOut(e.data, alloc), e.meta(), true
}

func (s *refStore) hit(e *refEntry) {
	s.hits++
	if e.lruElem != nil {
		s.lru.MoveToFront(e.lruElem)
	}
}

func (s *refStore) Has(key string) bool {
	_, ok := s.items[key]
	return ok && !s.closed
}

func (s *refStore) Delete(key string) error {
	if s.closed {
		return ErrClosed
	}
	e, ok := s.items[key]
	if !ok {
		return nil
	}
	if s.backend != nil && e.logged {
		if err := s.backend.Delete(key); err != nil {
			return fmt.Errorf("pagestore: delete %q: %w", key, err)
		}
	}
	s.unaccount(e)
	delete(s.items, key)
	return nil
}

// unaccount takes e out of the byte counts and the LRU.
func (s *refStore) unaccount(e *refEntry) {
	if e.resident {
		s.memBytes -= e.size
	}
	if e.dirty && !e.flushing {
		s.dirtyBytes -= e.size
	}
	if e.lruElem != nil {
		s.lru.Remove(e.lruElem)
		e.lruElem = nil
	}
}

func (s *refStore) evict() {
	if s.cfg.MemCapacity <= 0 {
		return
	}
	for s.memBytes > s.cfg.MemCapacity {
		back := s.lru.Back()
		if back == nil {
			return
		}
		e := back.Value.(*refEntry)
		s.lru.Remove(back)
		e.lruElem = nil
		e.resident = false
		s.memBytes -= e.size
		e.data = nil
		s.evictions++
	}
}

// current reports whether e is still the entry under its key.
func (s *refStore) current(e *refEntry) bool { return s.items[e.key] == e }

func (s *refStore) TakeDirty(maxBytes int64) (batch []*refEntry, total int64) {
	for len(s.dirtyQ) > 0 {
		e := s.dirtyQ[0]
		if !s.current(e) || !e.dirty || e.flushing {
			s.dirtyQ = s.dirtyQ[1:]
			continue
		}
		if len(batch) > 0 && maxBytes > 0 && total+e.size > maxBytes {
			break
		}
		s.dirtyQ = s.dirtyQ[1:]
		e.flushing = true
		s.dirtyBytes -= e.size
		batch = append(batch, e)
		total += e.size
	}
	return batch, total
}

func (s *refStore) CommitFlush(batch []*refEntry) error {
	for _, e := range batch {
		if !s.current(e) || !e.flushing {
			continue
		}
		if s.backend != nil && !s.closed {
			if err := s.backend.Put(e.key, e.data, e.size, e.synthetic); err != nil {
				return err
			}
			e.logged = true
		}
		e.flushing = false
		e.dirty = false
		if e.resident && e.lruElem == nil {
			e.lruElem = s.lru.PushFront(e)
		}
	}
	s.evict()
	return nil
}

func (s *refStore) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	if s.backend == nil {
		return nil
	}
	var err error
	flush := func(e *refEntry) {
		if !e.dirty {
			return
		}
		if !e.flushing {
			s.dirtyBytes -= e.size
		}
		if perr := s.backend.Put(e.key, e.data, e.size, e.synthetic); perr != nil && err == nil {
			err = perr
			return
		}
		e.dirty = false
		e.flushing = false
		e.logged = true
	}
	for _, e := range s.dirtyQ {
		if s.current(e) {
			flush(e)
		}
	}
	keys := make([]string, 0, len(s.items))
	for key := range s.items {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	for _, key := range keys {
		flush(s.items[key])
	}
	s.dirtyQ = nil
	if cerr := s.backend.Close(); err == nil {
		err = cerr
	}
	return err
}

func (s *refStore) Stats() Stats {
	return Stats{Entries: len(s.items), MemBytes: s.memBytes, Hits: s.hits, Misses: s.misses, Evictions: s.evictions}
}

// recordingBackend logs every Put and Delete that reaches its backend.
type recordingBackend struct {
	store.Backend
	log []string
}

func (r *recordingBackend) Put(key string, data []byte, size int64, synthetic bool) error {
	r.log = append(r.log, fmt.Sprintf("put %s size=%d synthetic=%v %x", key, size, synthetic, data))
	return r.Backend.Put(key, data, size, synthetic)
}

func (r *recordingBackend) Delete(key string) error {
	r.log = append(r.log, "delete "+key)
	return r.Backend.Delete(key)
}

// recorded opens a store and a reference store over recording backends
// of their own (none for an empty spec).
func recorded(t *testing.T, cfg Config) (*Store, *recordingBackend, *refStore, *recordingBackend) {
	t.Helper()
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Spec == "" {
		return s, &recordingBackend{}, newRefStore(cfg, nil), &recordingBackend{}
	}
	rec := &recordingBackend{Backend: s.backend}
	s.backend = rec
	be, err := store.Open(cfg.Spec)
	if err != nil {
		t.Fatal(err)
	}
	refRec := &recordingBackend{Backend: be}
	return s, rec, newRefStore(cfg, refRec), refRec
}

// TestMatchesReference drives the store and refStore through the same
// random traces and compares, after every op, everything either
// returns or shows: bytes, Meta and errors; Stats and DirtyBytes; each
// flush batch's keys and total; and the Puts and Deletes that reach the
// backend. The traces mix real and synthetic puts, overwrites while
// dirty and while flushing, delete and delete-then-put, the three reads,
// TakeDirty with random budgets and commits of random pending batches,
// under a tight MemCapacity, with enough deletes to compact the key
// arena.
func TestMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { matchReference(t, seed) })
	}
}

func matchReference(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	cfg := Config{MemCapacity: int64(48 + rng.Intn(160))}
	if seed%2 == 0 {
		cfg.Spec = "mem:"
	}
	s, rec, ref, refRec := recorded(t, cfg)

	keys := make([]string, 24)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d/%s", i, strings.Repeat("x", i%7*3))
	}
	alloc := func(n int64) []byte { return make([]byte, n+3) }
	type pending struct {
		batch []Taken
		ref   []*refEntry
	}
	var batches []pending
	compacted := false

	for op := 0; op < 800; op++ {
		key := keys[rng.Intn(len(keys))]
		var what string
		switch p := rng.Intn(100); {
		case p < 24:
			val := make([]byte, rng.Intn(49))
			rng.Read(val)
			what = fmt.Sprintf("Put(%q, %d bytes)", key, len(val))
			err, want := s.Put(key, val), ref.Put(key, val)
			sameErr(t, what, err, want)
		case p < 34:
			size := int64(rng.Intn(64))
			if rng.Intn(20) == 0 {
				size = -1
			}
			what = fmt.Sprintf("PutSynthetic(%q, %d)", key, size)
			err, want := s.PutSynthetic(key, size), ref.PutSynthetic(key, size)
			sameErr(t, what, err, want)
		case p < 46:
			what = fmt.Sprintf("Delete(%q)", key)
			before := len(s.keys)
			err, want := s.Delete(key), ref.Delete(key)
			sameErr(t, what, err, want)
			compacted = compacted || len(s.keys) < before
		case p < 58:
			a := alloc
			if rng.Intn(2) == 0 {
				a = nil
			}
			var data []byte
			var m Meta
			var err error
			if rng.Intn(2) == 0 {
				what = fmt.Sprintf("GetInto(%q)", key)
				data, m, err = s.GetInto(key, a)
			} else {
				what = fmt.Sprintf("GetBytesInto(%q)", key)
				data, m, err = s.GetBytesInto([]byte(key), a)
			}
			wantData, wantM, wantErr := ref.GetInto(key, a)
			sameErr(t, what, err, wantErr)
			if m != wantM || !sameBytes(data, wantData) {
				t.Fatalf("op %d %s = %x, %+v; reference %x, %+v", op, what, data, m, wantData, wantM)
			}
		case p < 66:
			what = fmt.Sprintf("GetResidentInto(%q)", key)
			data, m, ok := s.GetResidentInto([]byte(key), alloc)
			wantData, wantM, wantOK := ref.GetResidentInto([]byte(key), alloc)
			if ok != wantOK || m != wantM || !sameBytes(data, wantData) {
				t.Fatalf("op %d %s = %x, %+v, %v; reference %x, %+v, %v", op, what, data, m, ok, wantData, wantM, wantOK)
			}
		case p < 70:
			what = fmt.Sprintf("Has(%q)", key)
			if got, want := s.Has(key), ref.Has(key); got != want {
				t.Fatalf("op %d %s = %v, reference %v", op, what, got, want)
			}
		case p < 86:
			budget := int64(rng.Intn(120))
			what = fmt.Sprintf("TakeDirty(%d)", budget)
			batch, total := s.TakeDirty(budget)
			refBatch, refTotal := ref.TakeDirty(budget)
			var refKeys []string
			for _, e := range refBatch {
				refKeys = append(refKeys, e.key)
			}
			if got := s.batchKeys(batch); total != refTotal || !slices.Equal(got, refKeys) {
				t.Fatalf("op %d %s = %q (%d bytes), reference %q (%d bytes)", op, what, got, total, refKeys, refTotal)
			}
			if len(batch) > 0 {
				batches = append(batches, pending{batch, refBatch})
			}
		default:
			if len(batches) == 0 {
				continue
			}
			j := rng.Intn(len(batches))
			b := batches[j]
			batches = append(batches[:j], batches[j+1:]...)
			what = fmt.Sprintf("CommitFlush(%d entries)", len(b.batch))
			sameErr(t, what, s.CommitFlush(b.batch), ref.CommitFlush(b.ref))
		}
		if got, want := s.Stats(), ref.Stats(); got != want {
			t.Fatalf("op %d %s: Stats %+v, reference %+v", op, what, got, want)
		}
		if got, want := s.DirtyBytes(), ref.dirtyBytes; got != want {
			t.Fatalf("op %d %s: DirtyBytes %d, reference %d", op, what, got, want)
		}
		if !slices.Equal(rec.log, refRec.log) {
			t.Fatalf("op %d %s: backend saw\n%s\nreference\n%s", op, what, strings.Join(rec.log, "\n"), strings.Join(refRec.log, "\n"))
		}
	}
	if !compacted {
		t.Fatal("the trace never compacted the key arena")
	}

	before := len(rec.log)
	sameErr(t, "Close", s.Close(), ref.Close())
	got, want := slices.Clone(rec.log[before:]), slices.Clone(refRec.log[before:])
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("Close wrote\n%s\nreference\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if got, want := s.DirtyBytes(), ref.dirtyBytes; got != want {
		t.Fatalf("after Close: DirtyBytes %d, reference %d", got, want)
	}
}

// sameBytes compares two reads' results, nil apart from empty.
func sameBytes(a, b []byte) bool { return string(a) == string(b) && (a == nil) == (b == nil) }

func sameErr(t *testing.T, what string, got, want error) {
	t.Helper()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s: error %v, reference %v", what, got, want)
	}
}

// TestCloseOrderIsDeterministic: Close writes the entries of a flush
// batch that never committed in slot order, which for a store that has
// freed nothing is put order, so two identical stores write the same
// sequence.
func TestCloseOrderIsDeterministic(t *testing.T) {
	run := func() []string {
		s, err := Open(Config{Spec: "mem:"})
		if err != nil {
			t.Fatal(err)
		}
		rec := &recordingBackend{Backend: s.backend}
		s.backend = rec
		for i := 0; i < 64; i++ {
			s.Put(fmt.Sprintf("k%02d", i), []byte{byte(i)})
		}
		s.TakeDirty(0) // taken, never committed: all 64 are in flight
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return rec.log
	}
	a, b := run(), run()
	if len(a) != 64 || !slices.Equal(a, b) {
		t.Fatalf("two identical stores wrote\n%s\nand\n%s", strings.Join(a, "\n"), strings.Join(b, "\n"))
	}
	for i, line := range a {
		if want := fmt.Sprintf("put k%02d ", i); !strings.HasPrefix(line, want) {
			t.Fatalf("write %d is %q, want put order (%q...)", i, line, want)
		}
	}
}

// TestReopenCloseOrderIsDeterministic: a reopened store gives its
// recovered entries slots in key order, not in the order the backend
// walks its index, so Close writes in-flight overwrites of recovered
// keys in key order, the same on every run.
func TestReopenCloseOrderIsDeterministic(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Spec: "disk:" + dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		s.Put(fmt.Sprintf("k%02d", i), []byte{byte(i)})
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	reopen := func() []string {
		s, err := Open(Config{Spec: "disk:" + dir})
		if err != nil {
			t.Fatal(err)
		}
		rec := &recordingBackend{Backend: s.backend}
		s.backend = rec
		for i := 63; i >= 0; i-- { // put order differs from key order
			s.Put(fmt.Sprintf("k%02d", i), []byte{byte(i), 1})
		}
		s.TakeDirty(0) // taken, never committed: all 64 are in flight
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return rec.log
	}
	a, b := reopen(), reopen()
	if len(a) != 64 || !slices.Equal(a, b) {
		t.Fatalf("two reopens of one store wrote\n%s\nand\n%s", strings.Join(a, "\n"), strings.Join(b, "\n"))
	}
	for i, line := range a {
		if want := fmt.Sprintf("put k%02d ", i); !strings.HasPrefix(line, want) {
			t.Fatalf("write %d is %q, want key order (%q...)", i, line, want)
		}
	}
}

// TestFlushPlace pins where a rewritten key is flushed: an overwrite
// keeps the key's place in the dirty queue, while a key deleted and put
// again before its stale queue item is reached is flushed at its new
// place.
func TestFlushPlace(t *testing.T) {
	s := MustOpen(Config{})
	order := func() []string {
		batch, _ := s.TakeDirty(0)
		keys := s.batchKeys(batch)
		if err := s.CommitFlush(batch); err != nil {
			t.Fatal(err)
		}
		return keys
	}
	s.Put("a", []byte("1"))
	s.Put("b", []byte("1"))
	s.Put("a", []byte("2"))
	if got := order(); !slices.Equal(got, []string{"a", "b"}) {
		t.Fatalf("overwrite: flush order %q, want [a b]", got)
	}
	s.Put("a", []byte("3"))
	s.Put("b", []byte("3"))
	s.Delete("a")
	s.Put("a", []byte("4"))
	if got := order(); !slices.Equal(got, []string{"b", "a"}) {
		t.Fatalf("delete then put: flush order %q, want [b a]", got)
	}
}
