package placement

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/cluster"
)

func ids(ns ...int) []cluster.NodeID {
	out := make([]cluster.NodeID, len(ns))
	for i, n := range ns {
		out[i] = cluster.NodeID(n)
	}
	return out
}

func newMgr(t *testing.T, provs []cluster.NodeID, cfg Config) *Manager {
	t.Helper()
	env := cluster.NewLocal(32, 8)
	m := NewManager(env, 0, provs, cfg)
	t.Cleanup(m.Close)
	return m
}

func TestMembershipEpochAdvances(t *testing.T) {
	m := newMgr(t, ids(1, 2, 3), Config{})
	if m.Epoch() != 0 {
		t.Fatalf("fresh epoch = %d", m.Epoch())
	}
	steps := []struct {
		name string
		do   func() error
	}{
		{"join", func() error { return m.Join(4) }},
		{"down", func() error { m.SetHealth(2, false); return nil }},
		{"up", func() error { m.SetHealth(2, true); return nil }},
		{"drain", func() error { return m.Drain(3) }},
		{"leave", func() error { return m.Leave(3) }},
	}
	last := m.Epoch()
	for _, s := range steps {
		if err := s.do(); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if got := m.Epoch(); got != last+1 {
			t.Fatalf("%s: epoch %d, want %d", s.name, got, last+1)
		}
		last++
	}
	// No-ops must not bump the epoch.
	m.SetHealth(2, true)   // already up
	m.SetHealth(99, false) // not a member
	if err := m.Join(1); err == nil {
		t.Fatal("duplicate join succeeded")
	}
	if got := m.Epoch(); got != last {
		t.Fatalf("no-ops moved the epoch to %d, want %d", got, last)
	}
}

func TestJoinLeaveErrors(t *testing.T) {
	m := newMgr(t, ids(1), Config{})
	if err := m.Leave(1); err == nil {
		t.Fatal("removing the last member succeeded")
	}
	if err := m.Leave(9); err == nil {
		t.Fatal("removing a non-member succeeded")
	}
	if err := m.Drain(9); err == nil {
		t.Fatal("draining a non-member succeeded")
	}
}

func TestPreferredOwnersSkipDownAndDraining(t *testing.T) {
	m := newMgr(t, ids(1, 2, 3, 4, 5), Config{})
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("page-%d", i)
		owners := m.PreferredOwners(key, 2)
		if len(owners) != 2 {
			t.Fatalf("key %s: %d owners", key, len(owners))
		}
	}
	m.SetHealth(3, false)
	if err := m.Drain(5); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("page-%d", i)
		for _, o := range m.PreferredOwners(key, 2) {
			if o == 3 || o == 5 {
				t.Fatalf("key %s: preferred owner %d is down/draining", key, o)
			}
		}
	}
	// Clamped below the target when too few members are Up.
	m.SetHealth(1, false)
	m.SetHealth(2, false)
	if got := m.PreferredOwners("k", 3); len(got) != 1 || got[0] != 4 {
		t.Fatalf("owners with one Up member = %v, want [4]", got)
	}
}

func TestHealthCheckerThreshold(t *testing.T) {
	var mu sync.Mutex
	dead := map[cluster.NodeID]bool{}
	probe := func(n cluster.NodeID) bool {
		mu.Lock()
		defer mu.Unlock()
		return !dead[n]
	}
	m := newMgr(t, ids(1, 2, 3), Config{Probe: probe, FailAfter: 2})
	mu.Lock()
	dead[2] = true
	mu.Unlock()
	if m.CheckNow() != 3 {
		t.Fatal("one miss already marked the member down")
	}
	if m.CheckNow() != 2 {
		t.Fatal("second consecutive miss did not mark the member down")
	}
	if h, _ := m.Health(2); h != Down {
		t.Fatalf("health = %v, want down", h)
	}
	// One success brings it back.
	mu.Lock()
	dead[2] = false
	mu.Unlock()
	if m.CheckNow() != 3 {
		t.Fatal("passing probe did not restore the member")
	}
	if h, _ := m.Health(2); h != Up {
		t.Fatalf("health = %v, want up", h)
	}
}

func TestEvaluateRepairAndRebalance(t *testing.T) {
	m := newMgr(t, ids(1, 2, 3, 4), Config{})
	key := "blob/7/page/3"
	owners := m.PreferredOwners(key, 2)

	// Healthy page on its preferred owners: nothing to do.
	d := m.Evaluate(key, owners, 2)
	if d.Degraded || d.Lost || d.Misplaced || len(d.Add) != 0 {
		t.Fatalf("healthy evaluate = %+v", d)
	}

	// One owner dies: degraded, one add, desired excludes the dead node.
	m.SetHealth(owners[1], false)
	d = m.Evaluate(key, owners, 2)
	if !d.Degraded || d.Lost || len(d.Add) != 1 || len(d.Desired) != 2 {
		t.Fatalf("post-death evaluate = %+v", d)
	}
	for _, n := range d.Desired {
		if n == owners[1] {
			t.Fatal("desired set contains the dead node")
		}
	}
	m.SetHealth(owners[1], true)

	// A copy on a non-preferred node is misplaced but not degraded.
	other := cluster.NodeID(0)
	for _, n := range ids(1, 2, 3, 4) {
		if n != owners[0] && n != owners[1] {
			other = n
			break
		}
	}
	d = m.Evaluate(key, []cluster.NodeID{owners[0], other}, 2)
	if !d.Misplaced || d.Lost {
		t.Fatalf("misplaced evaluate = %+v", d)
	}
	if len(d.Add) != 1 || d.Add[0] != owners[1] {
		t.Fatalf("misplaced add = %v, want [%d]", d.Add, owners[1])
	}

	// All holders unreachable: lost, nothing addable from sources.
	m.SetHealth(owners[0], false)
	m.SetHealth(owners[1], false)
	d = m.Evaluate(key, owners, 2)
	if !d.Lost || len(d.Live) != 0 {
		t.Fatalf("lost evaluate = %+v", d)
	}

	// A holder that left the membership entirely is not a source.
	m.SetHealth(owners[0], true)
	m.SetHealth(owners[1], true)
	gone := other
	if err := m.Leave(gone); err != nil {
		t.Fatal(err)
	}
	d = m.Evaluate(key, []cluster.NodeID{gone}, 1)
	if !d.Lost {
		t.Fatalf("evaluate with a departed holder = %+v, want lost", d)
	}
}

func TestEvaluateClampsToUpFleet(t *testing.T) {
	m := newMgr(t, ids(1, 2), Config{})
	key := "k"
	owners := m.PreferredOwners(key, 2)
	m.SetHealth(owners[1], false)
	// One survivor holding its copy: the clamped target is satisfied.
	d := m.Evaluate(key, owners, 2)
	if d.Degraded || d.Lost || len(d.Add) != 0 {
		t.Fatalf("clamped evaluate = %+v", d)
	}
}

func TestPlaceUsesPreferredOwners(t *testing.T) {
	m := newMgr(t, ids(1, 2, 3, 4, 5), Config{})
	keys := []string{"a", "b", "c", "d"}
	sets, err := m.Place(0, keys, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		want := m.PreferredOwners(k, 2)
		if len(sets[i]) != 2 || sets[i][0] != want[0] || sets[i][1] != want[1] {
			t.Fatalf("key %s placed on %v, preferred %v", k, sets[i], want)
		}
	}
	// Replication clamps to the Up fleet.
	for _, n := range ids(2, 3, 4, 5) {
		m.SetHealth(n, false)
	}
	sets, err = m.Place(0, keys, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(sets[0]) != 1 || sets[0][0] != 1 {
		t.Fatalf("clamped place = %v, want [[1] ...]", sets[0])
	}
	m.SetHealth(1, false)
	if _, err := m.Place(0, keys, 1); err == nil {
		t.Fatal("place with no live providers succeeded")
	}
}

// fixed is a Strategy that gives every write the same answer.
type fixed [][]cluster.NodeID

func (f fixed) Place(cluster.NodeID, []string, int) [][]cluster.NodeID { return f }

// TestPlaceStrategyOverride: a Strategy's answer is the placement, in
// place of the ring's preferred owners.
func TestPlaceStrategyOverride(t *testing.T) {
	fleet := ids(1, 2, 3)
	want := fixed{ids(3), ids(3), ids(1)}
	m := newMgr(t, fleet, Config{Strategy: want})
	sets, err := m.Place(0, []string{"a", "b", "c"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fixed(sets), want) {
		t.Fatalf("placement = %v, want the strategy's %v", sets, want)
	}
}

func TestHeartbeatDaemonMarksDown(t *testing.T) {
	var mu sync.Mutex
	dead := map[cluster.NodeID]bool{}
	probe := func(n cluster.NodeID) bool {
		mu.Lock()
		defer mu.Unlock()
		return !dead[n]
	}
	env := cluster.NewLocal(8, 4)
	m := NewManager(env, 0, ids(1, 2), Config{
		Probe:             probe,
		HeartbeatInterval: 1e6, // 1ms of real time in the Local env
		FailAfter:         2,
	})
	defer m.Close()
	mu.Lock()
	dead[2] = true
	mu.Unlock()
	for i := 0; i < 200; i++ {
		if h, _ := m.Health(2); h == Down {
			return
		}
		env.Sleep(1e6)
	}
	t.Fatal("heartbeat daemon never marked the dead member down")
}

// Health reports a member's state; ok is false for non-members.
func (m *Manager) Health(n cluster.NodeID) (Health, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.members[n]
	if !ok {
		return 0, false
	}
	return st.health, true
}

// SetHealth records a probe verdict for a member, bypassing the miss
// threshold. Transitions bump the epoch. Draining members are not
// resurrected by a passing probe.
func (m *Manager) SetHealth(n cluster.NodeID, up bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.setHealthLocked(n, up, true)
}
