package simnet

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/sim"
)

// refRates is the all-flows progressive filling the solver replaced,
// kept as the reference: it scans every flow for each bottleneck and
// keeps its working state outside the links. It visits flows in the
// order given, so on the network's arrival-ordered slice its sums are
// taken in the solver's order and its rates must match bit for bit.
func refRates(flows []*flow) []float64 {
	type work struct{ sumW, capRem float64 }
	state := map[*link]*work{}
	var active []*link
	for _, f := range flows {
		for i, l := range f.links {
			w := state[l]
			if w == nil {
				w = &work{capRem: l.capacity}
				state[l] = w
				active = append(active, l)
			}
			w.sumW += f.weights[i]
		}
	}
	rates := make([]float64, len(flows))
	for i := range rates {
		rates[i] = -1
	}
	unfrozen := len(flows)
	for unfrozen > 0 {
		var bottleneck *link
		best := 0.0
		for _, l := range active {
			w := state[l]
			if w.sumW <= 0 {
				continue
			}
			if share := w.capRem / w.sumW; bottleneck == nil || share < best {
				bottleneck, best = l, share
			}
		}
		if bottleneck == nil {
			for i := range rates {
				if rates[i] < 0 {
					rates[i] = 1e18
					unfrozen--
				}
			}
			break
		}
		for j, f := range flows {
			if rates[j] >= 0 || !slices.Contains(f.links, bottleneck) {
				continue
			}
			rates[j] = best
			unfrozen--
			for i, l := range f.links {
				w := state[l]
				w.capRem -= best * f.weights[i]
				w.sumW -= f.weights[i]
				if w.capRem < 0 {
					w.capRem = 0
				}
			}
		}
		state[bottleneck].sumW = 0
	}
	return rates
}

// solverChecker compares the network's solved state with refRates. A
// check that finds a solve pending re-queues itself behind that solve,
// so a check queued before an arrival sees the rates the arrival's
// instant settles on.
type solverChecker struct {
	t       *testing.T
	n       *Network
	checked map[uint64]bool // solve epochs whose rates were compared
	failed  bool
}

func (c *solverChecker) check() {
	n := c.n
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.solving {
		n.eng.After(0, c.check)
		return
	}
	if c.failed {
		return
	}
	c.checked[n.epoch] = true
	for i, want := range refRates(n.flows) {
		if got := n.flows[i].rate; got != want {
			c.t.Errorf("epoch %d at %v: flow %d of %d has rate %v, reference %v",
				n.epoch, n.eng.Now(), i, len(n.flows), got, want)
			c.failed = true
			return
		}
	}
	// Every link lists exactly the active flows crossing it, in the
	// network's order.
	want := map[*link][]*flow{}
	for _, f := range n.flows {
		for _, l := range f.links {
			want[l] = append(want[l], f)
		}
	}
	all := slices.Concat(n.up, n.down, n.disk, n.rackUp, n.rackDn, []*link{n.core})
	for _, l := range all {
		if !slices.Equal(l.flows, want[l]) {
			c.t.Errorf("epoch %d: a link lists %d flows, %d cross it", n.epoch, len(l.flows), len(want[l]))
			c.failed = true
			return
		}
	}
}

// randomPath draws one of the shapes the storage layers build:
// unicast, scatter, gather, pipeline, each optionally disk-weighted, or
// a one-disk flush. Node sets hold 1 to width nodes.
func randomPath(rng *rand.Rand, n *Network, width int) *Path {
	nodes := n.NumNodes()
	node := func() NodeID { return NodeID(rng.Intn(nodes)) }
	set := func() []NodeID {
		s := make([]NodeID, 1+rng.Intn(width))
		for i := range s {
			s[i] = node()
		}
		return s
	}
	var p *Path
	switch rng.Intn(5) {
	case 0:
		p = n.PathUnicast(node(), node())
	case 1:
		p = n.PathScatter(node(), set())
	case 2:
		p = n.PathGather(node(), set())
	case 3:
		p = n.PathPipeline(node(), set())
	default:
		return n.pathDisk(node())
	}
	if rng.Intn(3) == 0 {
		for _, d := range set() {
			p.WithDisk(d, []float64{1, 0.5, 1.0 / 3}[rng.Intn(3)])
		}
	}
	return p
}

// TestSolverMatchesReference runs random flow sets with arrivals bunched
// onto a few instants, equal sizes that finish together, and processes
// that start their next transfer at the instant the last one completes;
// after every solve each rate must equal the reference's exactly. The
// narrow seeds draw node sets of up to 6 on Grid5000(60). The wide seeds
// draw them up to 64 wide on Grid5000(150), the scatters and gathers of
// the paper-scale runs, and add equal flushes on distinct disks at t = 0,
// so that many links tie on share and first-visit order picks the
// bottleneck.
func TestSolverMatchesReference(t *testing.T) {
	starts := []time.Duration{0, 0, time.Millisecond, 5 * time.Millisecond, 40 * time.Millisecond}
	sizes := []int64{MB, 2 * MB, 4 * MB, 16 * MB}
	for seed := int64(1); seed <= 40; seed++ {
		nodes, width, flushes := 60, 6, 0
		if seed > 20 {
			nodes, width, flushes = 150, 64, 20
		}
		rng := rand.New(rand.NewSource(seed))
		eng := sim.NewEngine()
		n := New(eng, Grid5000(nodes))
		c := &solverChecker{t: t, n: n, checked: map[uint64]bool{}}
		for _, node := range rng.Perm(nodes)[:flushes] {
			eng.Go(func() {
				eng.After(0, c.check)
				n.DiskWrite(NodeID(node), 8*MB)
				c.check()
			})
		}
		for p := 0; p < 40; p++ {
			start := starts[rng.Intn(len(starts))]
			type step struct {
				path *Path
				size int64
			}
			steps := make([]step, 1+rng.Intn(3))
			for i := range steps {
				steps[i] = step{randomPath(rng, n, width), sizes[rng.Intn(len(sizes))]}
			}
			eng.Go(func() {
				eng.Sleep(start)
				for _, s := range steps {
					eng.After(0, c.check)
					n.Transfer(s.path, s.size)
					c.check()
				}
			})
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if c.failed {
			t.Fatalf("seed %d: solver diverged from the reference", seed)
		}
		if len(n.flows) != 0 {
			t.Fatalf("seed %d: %d flows left after the run", seed, len(n.flows))
		}
		if len(c.checked) != int(n.epoch) {
			t.Fatalf("seed %d: compared %d of %d solves", seed, len(c.checked), n.epoch)
		}
	}
}

// TestOneSolvePerInstant starts 50 equal transfers at t = 0, each
// between its own pair of nodes inside one rack, so every flow runs at
// NIC rate and all finish at one instant: one solve for the arrivals,
// one for the completions.
func TestOneSolvePerInstant(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, Grid5000(100))
	for i := 0; i < 50; i++ {
		from, to := NodeID(2*i), NodeID(2*i+1) // racks of 30: a pair never straddles
		eng.Go(func() { n.Transfer(n.PathUnicast(from, to), 8*MB) })
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := time.Duration(float64(8*MB)/float64(125*MB)*1e9) + 1
	if now := eng.Now(); now != want {
		t.Fatalf("finished at %v, want %v", now, want)
	}
	if n.epoch != 2 {
		t.Fatalf("%d solves, want 2 (one arrival instant, one completion instant)", n.epoch)
	}
}

// TestSolveStaysInTouchedComponents: an event re-solves its whole
// component, flows two hops from it included, and leaves another
// component alone, whose rates still equal a full solve's bit for bit.
// Flows a0 (3→1) and a1 (0→1) share node 1's downlink. Two flows from
// node 0 arrive, so a1 falls to a third of node 0's uplink and a0 rises
// to take the rest of node 1's downlink; when they finish, both return
// to half. The other component is one flow from node 40 to node 41.
func TestSolveStaysInTouchedComponents(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, Grid5000(60))
	c := &solverChecker{t: t, n: n, checked: map[uint64]bool{}}
	other := n.up[40]
	var check func(string)
	check = func(event string) {
		if n.solving {
			eng.After(0, func() { check(event) })
			return
		}
		c.check()
		if other.epoch == n.epoch {
			t.Errorf("the %s's solve reached the other component", event)
		}
		if got := n.flows[0].rate; got != float64(125*MB) {
			t.Errorf("after the %s the other component's flow runs at %v", event, got)
		}
	}
	eng.Go(func() { n.Transfer(n.PathUnicast(40, 41), 256*MB) })
	eng.Go(func() { n.Transfer(n.PathUnicast(3, 1), 256*MB) })
	eng.Go(func() { n.Transfer(n.PathUnicast(0, 1), 256*MB) })
	eng.Go(func() {
		eng.Sleep(time.Millisecond)
		eng.Go(func() {
			n.Transfer(n.PathUnicast(0, 4), 8*MB)
		})
		eng.After(0, func() { check("arrival") })
		n.Transfer(n.PathUnicast(0, 2), 8*MB)
		check("departure")
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if c.failed || len(c.checked) != 2 {
		t.Fatalf("checked %d solves, failed %v", len(c.checked), c.failed)
	}
}

// TestRandomTracesMatchReference runs seeded traces of the shapes the
// storage layers build on Grid5000(150): one-disk flushes, and scatters,
// gathers and pipelines that write or read disks. Node sets are narrow,
// so the flow–link graph falls into many components that arrivals join
// and departures split. Processes sleep between transfers, so arrivals
// land between completions as well as on them. After every instant each
// rate must equal refRates over all flows, bit for bit, and some solves
// must leave flows unreached.
func TestRandomTracesMatchReference(t *testing.T) {
	sizes := []int64{MB, 2 * MB, 4 * MB, 16 * MB}
	gaps := []time.Duration{0, 0, time.Millisecond, 7 * time.Millisecond, 30 * time.Millisecond}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		eng := sim.NewEngine()
		n := New(eng, Grid5000(150))
		c := &solverChecker{t: t, n: n, checked: map[uint64]bool{}}
		node := func() NodeID { return NodeID(rng.Intn(150)) }
		set := func() []NodeID {
			s := make([]NodeID, 1+rng.Intn(4))
			for i := range s {
				s[i] = node()
			}
			return s
		}
		path := func() *Path {
			switch rng.Intn(4) {
			case 0:
				return n.pathDisk(node())
			case 1:
				dests := set()
				p := n.PathScatter(node(), dests)
				for _, d := range dests {
					p.WithDisk(d, 1/float64(len(dests)))
				}
				return p
			case 2:
				srcs := set()
				p := n.PathGather(node(), srcs)
				for _, s := range srcs {
					p.WithDisk(s, 1/float64(len(srcs)))
				}
				return p
			default:
				chain := set()
				p := n.PathPipeline(node(), chain)
				for _, d := range chain {
					p.WithDisk(d, 1)
				}
				return p
			}
		}
		partial := 0 // checks after which the last solve had left a flow unreached
		for p := 0; p < 60; p++ {
			steps := 1 + rng.Intn(4)
			eng.Go(func() { // processes run one at a time, so their draws are seeded too
				for range steps {
					eng.Sleep(gaps[rng.Intn(len(gaps))])
					eng.After(0, c.check)
					n.Transfer(path(), sizes[rng.Intn(len(sizes))])
					c.check()
					if slices.ContainsFunc(n.flows, func(f *flow) bool { return f.links[0].epoch != n.epoch }) {
						partial++
					}
				}
			})
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if c.failed {
			t.Fatalf("seed %d: solver diverged from the reference", seed)
		}
		if len(c.checked) != int(n.epoch) {
			t.Fatalf("seed %d: compared %d of %d solves", seed, len(c.checked), n.epoch)
		}
		if partial == 0 {
			t.Fatalf("seed %d: every solve reached every flow", seed)
		}
	}
}
