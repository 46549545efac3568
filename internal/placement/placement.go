// Package placement is the single authority for page placement in a
// BlobSeer deployment: it owns the provider membership view (who is in
// the fleet, joining, draining, or dead), the consistent-hashing ring
// that maps page keys to their preferred owners, and the health state
// that both write-time placement and the background rebalancer consult.
//
// Membership is epoch-versioned: every join, leave, drain, and health
// transition bumps the epoch, so observers can tell how far membership
// has moved. The model follows the distribution rules of invariant-style storage
// protocols: a node's share of the key space is determined by the ring,
// data placed before a membership change is migrated toward the ring's
// current preferred owners by a background loop, and repair (after
// death) and rebalance (after join) are two outcomes of the same
// evaluation.
package placement

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/dht"
)

// Health is a member's observed state.
type Health uint8

const (
	// Up members serve traffic and receive new placements.
	Up Health = iota
	// Down members are unreachable (crash or partition). They stay on
	// the ring — their copies may come back — but are skipped by
	// placement until probes succeed again.
	Down
	// Draining members still serve reads but receive no new
	// placements; the rebalancer migrates their pages away so they can
	// leave cleanly.
	Draining
)

// String returns the operator-facing name of the state.
func (h Health) String() string {
	switch h {
	case Up:
		return "up"
	case Down:
		return "down"
	case Draining:
		return "draining"
	}
	return fmt.Sprintf("health(%d)", uint8(h))
}

// Member is one provider in the membership view.
type Member struct {
	Node   cluster.NodeID
	Health Health
}

// Config parameterizes a Manager.
type Config struct {
	// Strategy overrides write-time placement (ablations). The ring
	// remains the authority for preferred owners and rebalancing.
	Strategy Strategy
	// Probe reports whether a provider currently responds. Required
	// for health checking (CheckNow and the heartbeat daemon).
	Probe func(cluster.NodeID) bool
	// HeartbeatInterval drives the background health checker: every
	// interval each member is probed and FailAfter consecutive misses
	// mark it Down (one success marks it Up again). 0 disables the
	// daemon; CheckNow stays available on demand.
	HeartbeatInterval time.Duration
	// FailAfter is the consecutive-miss threshold (default 2).
	FailAfter int
}

type memberState struct {
	health Health
	misses int
}

// Manager owns the membership view and the placement ring. It is safe
// for concurrent use.
type Manager struct {
	env  cluster.Env
	node cluster.NodeID
	cfg  Config
	ring *dht.Ring

	mu      sync.Mutex
	epoch   uint64
	members map[cluster.NodeID]*memberState
	downs   int // members currently Down (fast path for PreferredOwners)
	drains  int // members currently Draining
	stopped bool
}

// ringVNodes is the placement ring's virtual node count per member.
const ringVNodes = 64

// NewManager creates the placement authority on node over an initial
// provider fleet, and starts the heartbeat daemon when configured.
// Placement RPCs are charged against node.
func NewManager(env cluster.Env, node cluster.NodeID, providers []cluster.NodeID, cfg Config) *Manager {
	if len(providers) == 0 {
		panic("placement: manager needs at least one provider")
	}
	if cfg.FailAfter < 1 {
		cfg.FailAfter = 2
	}
	ps := append([]cluster.NodeID(nil), providers...)
	sort.Slice(ps, func(i, j int) bool { return ps[i] < ps[j] })
	m := &Manager{
		env:     env,
		node:    node,
		cfg:     cfg,
		ring:    dht.NewRing(ps, ringVNodes, 1),
		members: make(map[cluster.NodeID]*memberState, len(ps)),
	}
	for _, n := range ps {
		m.members[n] = &memberState{health: Up}
	}
	if cfg.HeartbeatInterval > 0 && cfg.Probe != nil {
		env.Daemon(m.heartbeatLoop)
	}
	return m
}

// Epoch returns the membership epoch. It increments on every join,
// leave, drain, and health transition.
func (m *Manager) Epoch() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.epoch
}

// Members returns the membership view, sorted by node.
func (m *Manager) Members() []Member {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Member, 0, len(m.members))
	for n, st := range m.members {
		out = append(out, Member{Node: n, Health: st.health})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// Fleet returns every member node (any health), sorted.
func (m *Manager) Fleet() []cluster.NodeID {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]cluster.NodeID, 0, len(m.members))
	for n := range m.members {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// liveCount counts Up members — Place consults it on every write
// batch.
func (m *Manager) liveCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, st := range m.members {
		if st.health == Up {
			n++
		}
	}
	return n
}

// Join adds a provider to the membership and the ring. The new member
// starts Up and immediately becomes a preferred owner for its ring
// share; the rebalancer migrates those pages onto it in the background.
func (m *Manager) Join(n cluster.NodeID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.members[n]; ok {
		return fmt.Errorf("placement: node %d is already a member", n)
	}
	m.members[n] = &memberState{health: Up}
	m.ring.AddNode(n)
	m.epoch++
	return nil
}

// Leave removes a provider from the membership and the ring. Pages it
// still holds lose that replica (a dead node's removal) or were already
// migrated away (a drained node's removal). The last member cannot
// leave.
func (m *Manager) Leave(n cluster.NodeID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.members[n]
	if !ok {
		return fmt.Errorf("placement: node %d is not a member", n)
	}
	if len(m.members) == 1 {
		return fmt.Errorf("placement: node %d is the last member", n)
	}
	switch st.health {
	case Down:
		m.downs--
	case Draining:
		m.drains--
	}
	delete(m.members, n)
	m.ring.RemoveNode(n)
	m.epoch++
	return nil
}

// Drain marks a provider Draining: it keeps serving reads but leaves
// the ring, so no new placement targets it and the rebalancer moves its
// pages to the remaining preferred owners. Follow with Leave once its
// share has migrated.
func (m *Manager) Drain(n cluster.NodeID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.members[n]
	if !ok {
		return fmt.Errorf("placement: node %d is not a member", n)
	}
	if st.health == Draining {
		return nil
	}
	if st.health == Down {
		m.downs--
	}
	st.health = Draining
	st.misses = 0
	m.drains++
	m.ring.RemoveNode(n)
	m.epoch++
	return nil
}

func (m *Manager) setHealthLocked(n cluster.NodeID, up, force bool) {
	st, ok := m.members[n]
	if !ok || st.health == Draining {
		return
	}
	if up {
		st.misses = 0
		if st.health == Down {
			st.health = Up
			m.downs--
			m.epoch++
		}
		return
	}
	st.misses++
	if st.health == Up && (force || st.misses >= m.cfg.FailAfter) {
		st.health = Down
		m.downs++
		m.epoch++
	}
}

// CheckNow probes every member once, applying the miss threshold, and
// returns how many members are Up afterwards. It is the synchronous
// form of the heartbeat daemon's tick; the rebalancer runs it before
// evaluating placements so decisions act on fresh health.
func (m *Manager) CheckNow() int {
	if m.cfg.Probe == nil {
		m.mu.Lock()
		defer m.mu.Unlock()
		return len(m.members) - m.downs - m.drains
	}
	verdicts := make(map[cluster.NodeID]bool)
	for _, n := range m.Fleet() {
		verdicts[n] = m.cfg.Probe(n)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for n, up := range verdicts {
		m.setHealthLocked(n, up, false)
	}
	return len(m.members) - m.downs - m.drains
}

// heartbeatLoop is the background health checker. Like every
// maintenance daemon in this repository it must never hold a real
// mutex across a virtual-time block, so the probe round runs between
// sleeps.
func (m *Manager) heartbeatLoop() {
	for {
		m.env.Sleep(m.cfg.HeartbeatInterval)
		m.mu.Lock()
		stopped := m.stopped
		m.mu.Unlock()
		if stopped {
			return
		}
		m.CheckNow()
	}
}

// Close stops the heartbeat daemon at its next tick.
func (m *Manager) Close() {
	m.mu.Lock()
	m.stopped = true
	m.mu.Unlock()
}

// PreferredOwners returns the first k Up members walking the ring
// clockwise from the key's hash: where the key's replicas should live
// under the current membership. Fewer than k are returned when fewer
// are Up.
func (m *Manager) PreferredOwners(key string, k int) []cluster.NodeID {
	m.mu.Lock()
	downs := m.downs
	m.mu.Unlock()
	if downs == 0 {
		// Ring holds exactly the non-draining members; all Up.
		return m.ring.LookupN(key, k)
	}
	// Walk the full ring order and keep the Up members.
	order := m.ring.LookupN(key, m.ring.Size())
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]cluster.NodeID, 0, k)
	for _, n := range order {
		if st, ok := m.members[n]; ok && st.health == Up {
			out = append(out, n)
			if len(out) == k {
				break
			}
		}
	}
	return out
}

// Place decides the replica sets for a batch of page keys, charging one
// round trip from the asking node (placement is a service call, not
// local knowledge). Replication is clamped to the Up member count; an
// empty fleet of Up members is an error.
func (m *Manager) Place(from cluster.NodeID, keys []string, replication int) ([][]cluster.NodeID, error) {
	m.env.RTT(from, m.node)
	if len(keys) == 0 {
		return nil, fmt.Errorf("placement: empty key batch")
	}
	if replication < 1 {
		replication = 1
	}
	nLive := m.liveCount()
	if nLive == 0 {
		return nil, fmt.Errorf("placement: no live providers")
	}
	if replication > nLive {
		replication = nLive
	}
	if m.cfg.Strategy != nil {
		return m.cfg.Strategy.Place(from, keys, replication), nil
	}
	out := make([][]cluster.NodeID, len(keys))
	for i, k := range keys {
		out[i] = m.PreferredOwners(k, replication)
	}
	return out, nil
}

// Decision is the outcome of evaluating one page's placement against
// the current membership: what the replica set should be, and how the
// current holders relate to it. Repair (after a death) and rebalance
// (after a join or drain) both fall out of it.
type Decision struct {
	// Desired is where the page's replicas should live: the live
	// preferred owners, clamped to the Up member count.
	Desired []cluster.NodeID
	// Live are the current holders that can serve the page (Up or
	// Draining members) — the copy sources.
	Live []cluster.NodeID
	// Add are the Desired nodes that hold no copy yet.
	Add []cluster.NodeID
	// Lost is true when no current holder is reachable.
	Lost bool
	// Degraded is true when fewer serving copies exist than the
	// (clamped) target.
	Degraded bool
	// Misplaced is true when a reachable copy sits on a node outside
	// Desired (a rebalance candidate once Desired is fully populated).
	Misplaced bool
}

// Evaluate compares a page's current holders against the membership's
// preferred owners for its key. target is the configured replication
// factor (clamping to the live fleet happens here).
func (m *Manager) Evaluate(key string, current []cluster.NodeID, target int) Decision {
	if target < 1 {
		target = 1
	}
	desired := m.PreferredOwners(key, target)
	m.mu.Lock()
	var d Decision
	d.Desired = desired
	inDesired := make(map[cluster.NodeID]bool, len(desired))
	for _, n := range desired {
		inDesired[n] = true
	}
	held := make(map[cluster.NodeID]bool, len(current))
	liveUp := 0
	for _, n := range current {
		held[n] = true
		st, ok := m.members[n]
		if !ok || st.health == Down {
			continue
		}
		d.Live = append(d.Live, n)
		if st.health == Up {
			liveUp++
		}
		if !inDesired[n] {
			d.Misplaced = true
		}
	}
	m.mu.Unlock()
	d.Lost = len(current) > 0 && len(d.Live) == 0
	// Draining holders serve reads but do not count toward the target:
	// the page needs copies on Up nodes before the drainer leaves.
	// len(desired) is the target clamped to the Up fleet, so a page
	// cannot be "degraded" below what the fleet can hold.
	d.Degraded = liveUp < len(desired)
	for _, n := range desired {
		if !held[n] {
			d.Add = append(d.Add, n)
		}
	}
	return d
}
