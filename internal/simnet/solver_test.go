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
