package sim

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
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
	done, fired := false, false
	e.Go(func() {
		s.Wait() // must not block
		done = true
		fired = s.WaitOr(e.NewSignal()) // nor must this
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("Wait on a fired signal blocked")
	}
	if !fired {
		t.Fatal("WaitOr on a fired signal reports the other one")
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
	var ends []time.Duration
	e.Go(func() {
		e.Sleep(time.Second)
		for i := 1; i <= 3; i++ {
			d := time.Duration(i) * time.Second
			e.Go(func() {
				e.Sleep(d)
				ends = append(ends, e.Now())
			})
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
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

func TestRealChannelFineWhenItNeverBlocks(t *testing.T) {
	// Processes may hand off through a real channel as long as no send
	// or receive blocks: a process parked on it would keep the baton.
	// The handoff is instantaneous in virtual time.
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

// The tests below append to slices guarded by no mutex: one process runs
// at a time, and each resume and yield is a synchronising hand-off, so
// -race sees every append ordered after the last.

func TestSignalWakesInWaitOrder(t *testing.T) {
	e := NewEngine()
	s := e.NewSignal()
	const n = 8
	var waited, woken []int
	for i := 0; i < n; i++ {
		e.Go(func() {
			e.Sleep(time.Duration(n-i) * time.Millisecond) // Wait in reverse spawn order
			waited = append(waited, i)
			s.Wait()
			woken = append(woken, i)
		})
	}
	e.Go(func() {
		e.Sleep(time.Second)
		s.Fire()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(woken) != n || !slices.Equal(woken, waited) {
		t.Fatalf("woken in order %v, want the Wait order %v", woken, waited)
	}
}

func TestSameInstantSpawnsRunInSpawnOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Go(func() {
		e.Sleep(time.Second)
		for i := 0; i < 8; i++ {
			e.Go(func() { order = append(order, i) })
		}
		order = append(order, -1) // the spawner runs on until it blocks
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []int{-1, 0, 1, 2, 3, 4, 5, 6, 7}; !slices.Equal(order, want) {
		t.Fatalf("run order %v, want %v", order, want)
	}
}

func TestSleepOutsideProcessPanics(t *testing.T) {
	e := NewEngine()
	var host string
	func() {
		defer func() { host = fmt.Sprint(recover()) }()
		e.Sleep(time.Second)
	}()
	if !strings.Contains(host, "sim: Sleep called outside a simulated process") {
		t.Fatalf("Sleep on the host goroutine: recovered %q, want the engine's panic", host)
	}
}

// TestAfterCallbackCannotPark: a callback runs on Run's own goroutine,
// between processes, so Sleep and Signal.Wait panic there. The panic
// leaves the engine whole: recovered inside the callback, the run goes
// on and the process wakes on time.
func TestAfterCallbackCannotPark(t *testing.T) {
	e := NewEngine()
	var msgs []string
	var woke time.Duration
	e.Go(func() {
		s := e.NewSignal()
		e.After(time.Second, func() {
			for _, park := range []func(){func() { e.Sleep(time.Second) }, s.Wait} {
				func() {
					defer func() { msgs = append(msgs, fmt.Sprint(recover())) }()
					park()
				}()
			}
		})
		e.Sleep(2 * time.Second)
		woke = e.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 2 || !strings.Contains(msgs[0], "sim: Sleep called outside a simulated process") ||
		!strings.Contains(msgs[1], "sim: Signal.Wait called outside a simulated process") {
		t.Fatalf("parks in an After callback recovered %q, want the engine's two panics", msgs)
	}
	if woke != 2*time.Second {
		t.Fatalf("the process woke at %v after the callback's panics, want 2s", woke)
	}
}

// TestProcessPanicComesOutOfRun: a process runs as a coroutine of Run's
// goroutine, so its panic comes out of Run, where the host can recover
// it, and does not crash the program from a goroutine of its own.
func TestProcessPanicComesOutOfRun(t *testing.T) {
	e := NewEngine()
	e.Go(func() {
		e.Sleep(time.Second)
		panic("boom")
	})
	got := func() (r any) {
		defer func() { r = recover() }()
		e.Run()
		return nil
	}()
	if got != "boom" {
		t.Fatalf("recovered %v around Run, want the process's panic", got)
	}
}

// TestProcessGoexitEndsRun: a process that ends its goroutine
// (runtime.Goexit, as t.FailNow does) ends the goroutine that called
// Run, after running its own deferred calls. Run neither returns nor
// hangs.
func TestProcessGoexitEndsRun(t *testing.T) {
	e := NewEngine()
	var deferred, returned bool
	e.Go(func() {
		defer func() { deferred = true }()
		e.Sleep(time.Second)
		runtime.Goexit()
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		e.Run()
		returned = true
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run's goroutine still runs 10 s after a process called runtime.Goexit")
	}
	if !deferred || returned {
		t.Fatalf("process's deferred call ran: %v, Run returned: %v; want true, false", deferred, returned)
	}
}

// TestSpareCoroutineIsReused: a process whose body returned leaves its
// coroutine idle, and the next Go runs on it rather than starting one.
func TestSpareCoroutineIsReused(t *testing.T) {
	e := NewEngine()
	started := func() int {
		e.mu.Lock()
		defer e.mu.Unlock()
		return len(e.all)
	}
	var counts []int
	e.Go(func() {
		for range 3 {
			e.Go(func() {})
			e.Sleep(time.Second) // the child runs and returns
			counts = append(counts, started())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []int{2, 2, 2}; !slices.Equal(counts, want) {
		t.Fatalf("coroutines started after each spawn: %v, want %v", counts, want)
	}
}

func TestRunLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	// Waves of short processes, so later waves reuse earlier goroutines.
	e.Go(func() {
		for wave := 0; wave < 5; wave++ {
			wg := e.NewWaitGroup()
			for i := 0; i < 50; i++ {
				wg.Go(func() { e.Sleep(time.Duration(i) * time.Millisecond) })
			}
			wg.Wait()
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Run, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRunEndsBlockedProcesses: a run that deadlocks with three parked
// processes and a parked daemon leaves no goroutine behind. Run ends
// each in start order: its deferred calls run at the instant the run
// stopped, a Sleep among them ends the process at once, and a process
// spawned among them never runs.
func TestRunEndsBlockedProcesses(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	never := e.NewSignal()
	var ended []string
	var at []time.Duration
	for i := range 3 {
		e.Go(func() {
			defer func() {
				ended = append(ended, fmt.Sprint("proc", i))
				at = append(at, e.Now())
			}()
			e.Sleep(time.Duration(3-i) * time.Second) // park in reverse start order
			never.Wait()
		})
	}
	e.GoDaemon(func() {
		defer func() { ended = append(ended, "daemon") }()
		defer func() {
			e.Go(func() { ended = append(ended, "spawned in a defer") })
			e.Sleep(time.Second)
			ended = append(ended, "slept in a defer")
		}()
		never.Wait()
	})
	if err := e.Run(); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("Run = %v, want ErrDeadlock", err)
	}
	if want := []string{"proc0", "proc1", "proc2", "daemon"}; !slices.Equal(ended, want) {
		t.Errorf("deferred calls ran as %v, want %v", ended, want)
	}
	if want := []time.Duration{3 * time.Second, 3 * time.Second, 3 * time.Second}; !slices.Equal(at, want) || e.Now() != 3*time.Second {
		t.Errorf("deferred calls ran at %v, and the clock reads %v after Run; want all at 3s", at, e.Now())
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Run, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWaitOrWakesOnce: a process that WaitOr woke through o is not
// woken again when s fires later, while it is parked on a third signal.
func TestWaitOrWakesOnce(t *testing.T) {
	e := NewEngine()
	s, o, third := e.NewSignal(), e.NewSignal(), e.NewSignal()
	var gotS bool
	var woke time.Duration
	e.Go(func() {
		gotS = s.WaitOr(o)
		third.Wait()
		woke = e.Now()
	})
	e.Go(func() {
		e.Sleep(time.Second)
		o.Fire()
		e.Sleep(time.Second)
		s.Fire()
		e.Sleep(time.Second)
		if woke == 0 { // a stale wake would have run the waiter on already
			third.Fire()
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if gotS || woke != 3*time.Second {
		t.Fatalf("WaitOr reported s: %v; the third signal's waiter woke at %v, want o and 3s", gotS, woke)
	}
}
