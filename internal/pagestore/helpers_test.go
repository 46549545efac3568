package pagestore

import (
	"fmt"
	"hash/maphash"
)

// MustOpen is Open for configurations that cannot fail (no durable
// backend; mem: and null: are fine).
func MustOpen(cfg Config) *Store {
	s, err := Open(cfg)
	if err != nil {
		panic(fmt.Sprintf("pagestore: MustOpen(%q): %v — use Open for durable backends", cfg.Spec, err))
	}
	return s
}

// Peek returns entry metadata without changing cache state. The second
// result reports presence.
func (s *Store) Peek(key string) (Meta, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := s.slotOf(key)
	if i == 0 {
		return Meta{}, false
	}
	return s.slots[i].meta(), true
}

// slotOf returns the slot indexed under key, or 0. The caller holds
// s.mu or owns s outright.
func (s *Store) slotOf(key string) int32 {
	_, i := find(s, maphash.String(s.seed, key), key)
	return i
}

// batchKeys returns the keys of a TakeDirty batch, in order: "" for an
// entry deleted since, which CommitFlush skips even if its key was put
// again.
func (s *Store) batchKeys(batch []Taken) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, len(batch))
	for j, t := range batch {
		if e := &s.slots[t.slot]; e.gen == t.gen {
			keys[j] = string(s.key(e))
		}
	}
	return keys
}

// Compact reclaims backend space held by overwrites and tombstones.
// No-op without a backend.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.backend == nil || s.closed {
		return nil
	}
	return s.backend.Compact()
}
