//go:build !race

package sim

import (
	"testing"
	"time"
)

// TestAllocSleepAndWait: a Sleep reuses its process's own wake event
// and park channel, so it allocates nothing; a Signal.Wait allocates at
// most its entry in the waiter list. Out of the race legs, whose runtime
// inflates allocation counts.
func TestAllocSleepAndWait(t *testing.T) {
	const runs = 100
	e := NewEngine()
	sigs := make([]*Signal, runs+1) // AllocsPerRun adds one warm-up run
	for i := range sigs {
		sigs[i] = e.NewSignal()
	}
	var sleep, wait float64
	e.Go(func() {
		sleep = testing.AllocsPerRun(runs, func() { e.Sleep(time.Microsecond) })
		i := 0
		wait = testing.AllocsPerRun(runs, func() {
			sigs[i].Wait()
			i++
		})
	})
	e.Go(func() {
		e.Sleep(time.Duration(runs+1) * time.Microsecond) // until the Sleep runs are done
		for _, s := range sigs {
			e.Sleep(time.Nanosecond)
			s.Fire()
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if sleep != 0 {
		t.Errorf("Sleep: %v allocs/op, want 0", sleep)
	}
	if wait > 1 {
		t.Errorf("Signal.Wait: %v allocs/op, want <= 1", wait)
	}
}
