package pagestore

import "fmt"

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
	e, ok := s.items[key]
	if !ok {
		return Meta{}, false
	}
	return e.meta(), true
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
