package sim

import (
	"testing"
	"time"
)

// BenchmarkEventThroughput measures raw scheduler throughput: one
// process sleeping repeatedly (event schedule + fire per iteration).
func BenchmarkEventThroughput(b *testing.B) {
	e := NewEngine()
	e.Go(func() {
		for i := 0; i < b.N; i++ {
			e.Sleep(time.Microsecond)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
