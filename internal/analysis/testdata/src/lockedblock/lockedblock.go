// Package lockedblock is the golden corpus for the lockedblock rule:
// every `// want` comment marks a line the analyzer must flag, and
// every unannotated line must stay silent.
package lockedblock

import (
	"sync"
	"time"

	"repro/internal/cluster"
)

type server struct {
	mu    sync.Mutex
	env   cluster.Env
	state time.Duration
}

func (s *server) direct() {
	s.mu.Lock()
	s.env.Sleep(time.Millisecond) // want `Env\.Sleep blocks in virtual time while "s\.mu" is locked`
	s.mu.Unlock()
}

func (s *server) deferredHold(peer cluster.NodeID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.env.RTT(0, peer) // want `Env\.RTT blocks in virtual time while "s\.mu" is locked`
}

func (s *server) ping(peer cluster.NodeID) {
	s.env.RTT(0, peer)
}

func (s *server) transitive(peer cluster.NodeID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ping(peer) // want `ping blocks in virtual time \(Env\.RTT\) while "s\.mu" is locked`
}

func (s *server) waitEither(done, canceled cluster.Signal) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return done.WaitOr(canceled) // want `Signal\.WaitOr blocks in virtual time while "s\.mu" is locked`
}

// releasesFirst is a non-finding: the mutex is dropped before the
// blocking call.
func (s *server) releasesFirst() {
	s.mu.Lock()
	d := s.state
	s.mu.Unlock()
	s.env.Sleep(d)
}

// lockAware blocks, but only after releasing the caller's mutex — the
// commit-under-handle shape. Callers holding s.mu may call it.
func (s *server) lockAware() {
	s.mu.Unlock()
	s.env.Sleep(time.Millisecond)
	s.mu.Lock()
}

// callsLockAware is a non-finding: the callee manages the lock itself.
func (s *server) callsLockAware() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lockAware()
}

// spawns is a non-finding: the daemon body runs on another goroutine
// without the spawner's lock.
func (s *server) spawns() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.env.Daemon(func() {
		s.env.Sleep(time.Second)
	})
}

// suppressed is a non-finding: the inline allowance silences the rule
// on the next line.
func (s *server) suppressed() {
	s.mu.Lock()
	defer s.mu.Unlock()
	//bsfs-vet:allow lockedblock -- corpus demo: a documented single-goroutine handle
	s.env.Sleep(time.Millisecond)
}
