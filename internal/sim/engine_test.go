package sim

import (
	"errors"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestSleepAdvancesClock(t *testing.T) {
	e := NewEngine()
	var got time.Duration
	e.Go(func() {
		e.Sleep(3 * time.Second)
		got = e.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 3*time.Second {
		t.Fatalf("Now after Sleep(3s) = %v, want 3s", got)
	}
}

func TestSleepZeroAndNegative(t *testing.T) {
	e := NewEngine()
	var after time.Duration
	e.Go(func() {
		e.Sleep(0)
		e.Sleep(-time.Second)
		after = e.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if after != 0 {
		t.Fatalf("clock moved to %v on zero/negative sleeps", after)
	}
}

func TestEventOrdering(t *testing.T) {
	e := NewEngine()
	var mu sync.Mutex
	var order []int
	add := func(i int) {
		mu.Lock()
		order = append(order, i)
		mu.Unlock()
	}
	// Spawn in shuffled delay order; expect wake order by virtual time.
	delays := []time.Duration{5, 1, 4, 2, 3}
	for i, d := range delays {
		i, d := i, d
		e.Go(func() {
			e.Sleep(d * time.Millisecond)
			add(i)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 3, 4, 2, 0} // sorted by delay 1,2,3,4,5
	for k := range want {
		if order[k] != want[k] {
			t.Fatalf("wake order = %v, want %v", order, want)
		}
	}
}

func TestTieBreakBySchedulingOrder(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Go(func() {
		e.After(time.Second, func() { order = append(order, "a") })
		e.After(time.Second, func() { order = append(order, "b") })
		e.Sleep(2 * time.Second) // keep the simulation alive past the events
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("same-time events order = %v, want [a b]", order)
	}
}

func TestSignalWakesAllWaiters(t *testing.T) {
	e := NewEngine()
	s := e.NewSignal()
	var mu sync.Mutex
	woken := 0
	for i := 0; i < 10; i++ {
		e.Go(func() {
			s.Wait()
			mu.Lock()
			woken++
			mu.Unlock()
		})
	}
	e.Go(func() {
		e.Sleep(time.Second)
		s.Fire()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woken != 10 {
		t.Fatalf("woken = %d, want 10", woken)
	}
}

func TestSignalFireBeforeWait(t *testing.T) {
	e := NewEngine()
	s := e.NewSignal()
	s.Fire()
	s.Fire() // double fire is a no-op
	done := false
	e.Go(func() {
		s.Wait() // must not block
		done = true
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("Wait on a fired signal blocked")
	}
	if !s.Fired() {
		t.Fatal("Fired() = false after Fire")
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine()
	s := e.NewSignal()
	e.Go(func() { s.Wait() }) // nobody will fire
	err := e.Run()
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("Run = %v, want ErrDeadlock", err)
	}
}

func TestDaemonDoesNotBlockRun(t *testing.T) {
	e := NewEngine()
	s := e.NewSignal()
	e.GoDaemon(func() { s.Wait() }) // daemon blocked forever
	ran := false
	e.Go(func() {
		e.Sleep(time.Millisecond)
		ran = true
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("regular process did not finish")
	}
}

func TestTimerCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Go(func() {
		tm := e.After(time.Second, func() { fired = true })
		if !tm.Cancel() {
			t.Error("Cancel on pending timer returned false")
		}
		if tm.Cancel() {
			t.Error("second Cancel returned true")
		}
		e.Sleep(2 * time.Second)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("cancelled timer fired")
	}
}

func TestTimerReschedulingFromCallback(t *testing.T) {
	e := NewEngine()
	var times []time.Duration
	var tick func()
	n := 0
	tick = func() {
		times = append(times, e.Now())
		n++
		if n < 3 {
			e.After(time.Second, tick)
		}
	}
	e.Go(func() {
		e.After(time.Second, tick)
		e.Sleep(10 * time.Second)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{time.Second, 2 * time.Second, 3 * time.Second}
	if len(times) != len(want) {
		t.Fatalf("ticks = %v, want %v", times, want)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("ticks = %v, want %v", times, want)
		}
	}
}

func TestNestedSpawn(t *testing.T) {
	e := NewEngine()
	var mu sync.Mutex
	var ends []time.Duration
	e.Go(func() {
		e.Sleep(time.Second)
		for i := 1; i <= 3; i++ {
			d := time.Duration(i) * time.Second
			e.Go(func() {
				e.Sleep(d)
				mu.Lock()
				ends = append(ends, e.Now())
				mu.Unlock()
			})
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
	want := []time.Duration{2 * time.Second, 3 * time.Second, 4 * time.Second}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends = %v, want %v", ends, want)
		}
	}
}

func TestRunTwiceFails(t *testing.T) {
	e := NewEngine()
	e.Go(func() {})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err == nil {
		t.Fatal("second Run did not fail")
	}
}

func TestManyProcessesStress(t *testing.T) {
	e := NewEngine()
	const n = 2000
	var mu sync.Mutex
	done := 0
	for i := 0; i < n; i++ {
		d := time.Duration(i%97+1) * time.Millisecond
		e.Go(func() {
			e.Sleep(d)
			e.Sleep(d)
			mu.Lock()
			done++
			mu.Unlock()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if done != n {
		t.Fatalf("done = %d, want %d", done, n)
	}
}

func TestRealSyncBetweenRunnableProcs(t *testing.T) {
	// Processes may hand off through real channels as long as the
	// counterpart is runnable: the handoff is instantaneous in virtual
	// time.
	e := NewEngine()
	ch := make(chan int, 1)
	var got int
	e.Go(func() {
		e.Sleep(time.Second)
		ch <- 42 // buffered: never blocks across virtual time
	})
	e.Go(func() {
		e.Sleep(2 * time.Second) // strictly after the send
		got = <-ch
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("got %d, want 42", got)
	}
}
