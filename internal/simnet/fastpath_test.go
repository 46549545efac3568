package simnet

import (
	"slices"
	"testing"
	"time"

	"repro/internal/sim"
)

func TestSmallTransferFastPath(t *testing.T) {
	// A transfer at the cutoff bypasses the solver but still takes the
	// bottleneck-rate time: 100 KB at 100 MB/s = ~1 ms.
	cfg := testConfig(4)
	cfg.smallTransferCutoff = 256 * KB
	d := runNet(t, cfg, func(n *Network) {
		n.Transfer(n.PathUnicast(0, 1), 100*KB)
	})
	secs := float64(100*KB) / float64(100*MB)
	want := time.Duration(secs * 1e9)
	if d < want || d > want*2 {
		t.Fatalf("small transfer took %v, want ~%v", d, want)
	}
}

func TestSmallTransferCountsStats(t *testing.T) {
	cfg := testConfig(4)
	cfg.smallTransferCutoff = 256 * KB
	eng := sim.NewEngine()
	n := New(eng, cfg)
	eng.Go(func() {
		n.Transfer(n.PathUnicast(0, 1), 100*KB)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	s := n.Stats()
	if s.BytesUp[0] < 90*KB {
		t.Fatalf("fast-path bytes not accounted: %d", s.BytesUp[0])
	}
}

func TestSmallTransferDisabled(t *testing.T) {
	// Negative cutoff forces even tiny transfers through the solver;
	// results must agree with the fast path within rounding.
	slow := testConfig(4)
	slow.smallTransferCutoff = -1
	fast := testConfig(4)
	fast.smallTransferCutoff = 256 * KB
	dSlow := runNet(t, slow, func(n *Network) { n.Transfer(n.PathUnicast(0, 1), 128*KB) })
	dFast := runNet(t, fast, func(n *Network) { n.Transfer(n.PathUnicast(0, 1), 128*KB) })
	diff := dSlow - dFast
	if diff < 0 {
		diff = -diff
	}
	if diff > dSlow/10 {
		t.Fatalf("fast path diverges: solver %v vs fast %v", dSlow, dFast)
	}
}

func TestSmallTransferRespectsDiskWeight(t *testing.T) {
	// A disk-weighted fast-path transfer is charged at the disk's
	// effective rate, not the NIC's.
	cfg := testConfig(4)
	cfg.smallTransferCutoff = 256 * KB
	d := runNet(t, cfg, func(n *Network) {
		p := n.PathUnicast(0, 1).WithDisk(0, 1)
		n.Transfer(p, 200*KB)
	})
	secs := float64(200*KB) / float64(50*MB) // disk 50 MB/s
	want := time.Duration(secs * 1e9)
	if d < want {
		t.Fatalf("disk-weighted small transfer took %v, want >= %v", d, want)
	}
}

func TestScatterIncludesIntraRackShare(t *testing.T) {
	// A scatter whose destinations are all in the source's rack must
	// not touch rack uplinks: with rack size 4, scatter from 0 to
	// {1,2,3} at 300 MB runs at the NIC rate (3 s), even if the rack
	// uplink were saturated by someone else.
	cfg := testConfig(8)
	d := runNet(t, cfg, func(n *Network) {
		wg := n.Engine().NewWaitGroup()
		wg.Go(func() {
			n.Transfer(n.PathScatter(0, []NodeID{1, 2, 3}), 300*MB)
		})
		// Cross-rack noise on the rack link (not touching node 0's NIC).
		for i := 1; i < 4; i++ {
			src := NodeID(i)
			wg.Go(func() {
				n.Transfer(n.PathUnicast(src, src+4), 100*MB)
			})
		}
		n.Engine().Sleep(time.Millisecond)
		wg.Wait()
	})
	if d < 2900*time.Millisecond || d > 3500*time.Millisecond {
		t.Fatalf("intra-rack scatter with cross-rack noise took %v, want ~3s", d)
	}
}

func TestPathWeightMerging(t *testing.T) {
	// Adding the same link twice merges weights: a pipeline visiting a
	// node as both receiver and sender loads each direction once.
	cfg := testConfig(4)
	d := runNet(t, cfg, func(n *Network) {
		// 0 -> 1 -> 2: node 1 is on the path with up and down separately.
		n.Transfer(n.PathPipeline(0, []NodeID{1, 2}), 100*MB)
	})
	// Rate = NIC 100 MB/s (each link weight 1) -> 1 s.
	if d < 900*time.Millisecond || d > 1200*time.Millisecond {
		t.Fatalf("pipeline took %v", d)
	}
}

// TestPathMergesAfterAnotherPath: a path extended after another path
// added the same link still holds it once, its weights summed in order,
// and a path a small transfer is done with comes back empty.
func TestPathMergesAfterAnotherPath(t *testing.T) {
	n := New(sim.NewEngine(), Grid5000(60))
	p := n.PathUnicast(0, 1).WithDisk(5, 0.5)
	q := n.pathDisk(5)
	p.WithDisk(5, 0.25).WithDisk(5, 0.25)
	if want := []*link{n.up[0], n.down[1], n.disk[5]}; !slices.Equal(p.links, want) {
		t.Fatalf("path holds %d links, want %d", len(p.links), len(want))
	}
	if want := []float64{1, 1, 1}; !slices.Equal(p.weights, want) {
		t.Fatalf("weights %v, want %v", p.weights, want)
	}
	if len(q.links) != 1 || q.weights[0] != 1 {
		t.Fatalf("the other path holds %d links", len(q.links))
	}
	n.eng.Go(func() { n.Transfer(q, KB) })
	if err := n.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if r := n.PathUnicast(0, 2); r != q || !slices.Equal(r.links, []*link{n.up[0], n.down[2]}) {
		t.Fatal("a released path was not reused empty")
	}
}

// TestAtRestHoldsNoPaths: while flows run, a finished flow's path is
// kept for reuse; once the last one finishes, the network keeps no
// spare path and no finished flow, so a simulation that has ended holds
// nothing of its transfers.
func TestAtRestHoldsNoPaths(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, Grid5000(60))
	for i := range 8 {
		eng.Go(func() { n.Transfer(n.PathScatter(NodeID(i), []NodeID{20, 40}), MB*int64(1+i)) })
	}
	reused := false
	eng.Go(func() {
		eng.Sleep(50 * time.Millisecond) // the first of the eight has finished
		reused = len(n.spare) > 0
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !reused {
		t.Error("no finished flow's path was kept while others ran")
	}
	if len(n.spare) != 0 || cap(n.touched) != 0 {
		t.Fatalf("at rest the network holds %d spare paths and room for %d finished flows", len(n.spare), cap(n.touched))
	}
}

func TestConfigDefaultsApplied(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, Config{nodes: 2, nicBandwidth: MB})
	if n.cfg.smallTransferCutoff != 256*KB {
		t.Fatalf("default cutoff = %d", n.cfg.smallTransferCutoff)
	}
	if n.cfg.nodesPerRack != 2 {
		t.Fatalf("default rack size = %d", n.cfg.nodesPerRack)
	}
}
