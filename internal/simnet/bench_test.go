package simnet

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/sim"
)

// BenchmarkMaxMinSolver measures the fair-share recompute cost with
// many concurrent striped flows — the dominant cost of cluster-scale
// experiments. The flows-N cases all share the same 200 downlinks, so
// every bottleneck carries every flow; unicast-400 spreads 400 flows
// over 30 source and 30 sink NICs and the core, so a bottleneck
// carries a few of them.
func BenchmarkMaxMinSolver(b *testing.B) {
	for _, flows := range []int{16, 64, 250} {
		b.Run(fmt.Sprintf("flows-%d", flows), func(b *testing.B) {
			eng := sim.NewEngine()
			n := New(eng, Grid5000(270))
			dests := make([]NodeID, 200)
			for i := range dests {
				dests[i] = NodeID(i + 60)
			}
			eng.Go(func() {
				for round := 0; round < b.N; round++ {
					wg := eng.NewWaitGroup()
					for f := 0; f < flows; f++ {
						src := NodeID(f%50 + 1)
						wg.Go(func() {
							n.Transfer(n.PathScatter(src, dests), 8*MB)
						})
					}
					wg.Wait()
				}
			})
			b.ResetTimer()
			if err := eng.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
	b.Run("unicast-400", func(b *testing.B) {
		eng := sim.NewEngine()
		n := New(eng, Grid5000(60))
		eng.Go(func() {
			for round := 0; round < b.N; round++ {
				wg := eng.NewWaitGroup()
				for i := 0; i < 400; i++ {
					from, to := NodeID(i%30), NodeID(30+(i*7)%30)
					wg.Go(func() {
						n.Transfer(n.PathUnicast(from, to), 4*MB)
					})
				}
				wg.Wait()
			}
		})
		b.ResetTimer()
		if err := eng.Run(); err != nil {
			b.Fatal(err)
		}
	})
	// paper-shape is the mix a write phase of the paper-scale runs
	// solves: 140 one-link disk flushes, each a bottleneck of its own,
	// beside 50 block scatters that cross 64 downlinks each. round starts
	// them all and waits for the last; per-event keeps them running and
	// times one more flush, on a disk none of them uses, arriving and
	// completing.
	paperShape := func(n *Network, minSize int64) []func() {
		rng := rand.New(rand.NewSource(1))
		size := func() int64 { return minSize + rng.Int63n(8*MB+1) }
		nodes := n.NumNodes()
		var transfers []func()
		for _, node := range rng.Perm(nodes)[:140] {
			sz := size()
			transfers = append(transfers, func() { n.DiskWrite(NodeID(node), sz) })
		}
		for i := 0; i < 50; i++ {
			src, sz := NodeID(rng.Intn(nodes)), size()
			dests := make([]NodeID, 64)
			for j, d := range rng.Perm(nodes)[:64] {
				dests[j] = NodeID(d)
			}
			transfers = append(transfers, func() { n.Transfer(n.PathScatter(src, dests), sz) })
		}
		return transfers
	}
	b.Run("paper-shape", func(b *testing.B) {
		b.Run("round", func(b *testing.B) {
			eng := sim.NewEngine()
			n := New(eng, Grid5000(150))
			transfers := paperShape(n, 8*MB)
			eng.Go(func() {
				for round := 0; round < b.N; round++ {
					wg := eng.NewWaitGroup()
					for _, transfer := range transfers {
						wg.Go(transfer)
					}
					wg.Wait()
				}
			})
			b.ResetTimer()
			if err := eng.Run(); err != nil {
				b.Fatal(err)
			}
		})
		b.Run("per-event", func(b *testing.B) {
			eng := sim.NewEngine()
			n := New(eng, Grid5000(150))
			// No background flow ends inside the timed loop.
			for _, transfer := range paperShape(n, 1<<40) {
				eng.Go(transfer)
			}
			eng.Go(func() {
				eng.Sleep(time.Millisecond)
				free := slices.IndexFunc(n.disk, func(l *link) bool { return len(l.flows) == 0 })
				b.ResetTimer()
				for range b.N {
					n.DiskWrite(NodeID(free), MB)
				}
				b.StopTimer()
			})
			if err := eng.Run(); err != nil {
				b.Fatal(err)
			}
		})
	})
}
