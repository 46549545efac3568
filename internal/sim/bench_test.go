package sim

import (
	"testing"
	"time"
)

// BenchmarkEventThroughput measures the engine's cost per wake, one
// wake per iteration. procs-1 is one process sleeping repeatedly, so
// every wake resumes the process that just parked. procs-200 is 200
// processes sleeping in lockstep, so consecutive wakes resume different
// processes. signal-chain-100 is 100 processes in a ring, each firing
// the next one's signal: no event is scheduled, only ready processes
// handed on.
func BenchmarkEventThroughput(b *testing.B) {
	b.Run("procs-1", func(b *testing.B) { benchSleepers(b, 1) })
	b.Run("procs-200", func(b *testing.B) { benchSleepers(b, 200) })
	b.Run("signal-chain-100", func(b *testing.B) {
		const n = 100
		e := NewEngine()
		sigs := make([]*Signal, n)
		for i := range sigs {
			sigs[i] = e.NewSignal()
		}
		for i := range n {
			e.Go(func() {
				for range share(b.N, n, i) {
					sigs[i].Wait()
					sigs[i] = e.NewSignal()
					sigs[(i+1)%n].Fire()
				}
			})
		}
		sigs[0].Fire()
		b.ResetTimer()
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	})
}

// benchSleepers runs n processes that each sleep 1 µs at a time, b.N
// sleeps in all.
func benchSleepers(b *testing.B, n int) {
	e := NewEngine()
	for i := range n {
		e.Go(func() {
			for range share(b.N, n, i) {
				e.Sleep(time.Microsecond)
			}
		})
	}
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// share is worker i's part when total jobs are dealt round-robin to n.
func share(total, n, i int) int {
	s := total / n
	if i < total%n {
		s++
	}
	return s
}
