package simnet

import (
	"fmt"
	"testing"

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
}

// BenchmarkPathConstruction measures building wide scatter paths.
func BenchmarkPathConstruction(b *testing.B) {
	eng := sim.NewEngine()
	n := New(eng, Grid5000(270))
	dests := make([]NodeID, 250)
	for i := range dests {
		dests[i] = NodeID(i + 10)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := n.PathScatter(NodeID(i%9+1), dests)
		if len(p.links) == 0 {
			b.Fatal("empty path")
		}
	}
}
