// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine multiplexes simulated processes (ordinary goroutines spawned
// with Engine.Go) over a virtual clock. Virtual time advances only when
// every live process is blocked on a simulation primitive (Sleep, Signal,
// or a timer); the engine then pops the earliest pending event and resumes
// the processes it wakes. Code running between blocking points is treated
// as instantaneous in virtual time, which matches the modelling assumption
// of this repository: network and disk transfers consume time, CPU does
// not.
//
// Processes may freely use real sync primitives (mutexes, channels) to
// coordinate with other *currently runnable* processes; such coordination
// is instantaneous in virtual time. Blocking across virtual time must go
// through the engine, otherwise Run reports a deadlock.
package sim

import (
	"container/heap"
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrDeadlock is returned by Run when live processes remain but no event
// can ever wake them.
var ErrDeadlock = errors.New("sim: deadlock: processes blocked with no pending events")

// Engine is a discrete-event scheduler. The zero value is not usable; use
// NewEngine.
type Engine struct {
	mu      sync.Mutex
	idle    *sync.Cond // signalled when runnable drops to zero
	now     time.Duration
	queue   eventQueue
	seq     uint64
	procs   int // live non-daemon processes
	daemons int // live daemon processes
	// runnable counts processes that are not blocked on an engine
	// primitive. Run advances the clock only when it reaches zero.
	runnable int
	running  bool
}

type event struct {
	at    time.Duration
	seq   uint64
	fn    func()
	index int // heap index, -1 once removed
}

// Timer is a cancellable scheduled callback.
type Timer struct {
	e  *Engine
	ev *event
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	e := &Engine{}
	e.idle = sync.NewCond(&e.mu)
	return e
}

// Now returns the current virtual time (elapsed since engine start).
func (e *Engine) Now() time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.now
}

// Go spawns fn as a simulated process. Run returns once all non-daemon
// processes have finished.
func (e *Engine) Go(fn func()) {
	e.spawn(fn, false)
}

// GoDaemon spawns fn as a daemon process: it does not keep Run alive.
// Daemons still blocked when the last regular process finishes are
// abandoned.
func (e *Engine) GoDaemon(fn func()) {
	e.spawn(fn, true)
}

func (e *Engine) spawn(fn func(), daemon bool) {
	e.mu.Lock()
	if daemon {
		e.daemons++
	} else {
		e.procs++
	}
	e.runnable++
	e.mu.Unlock()
	go func() {
		defer func() {
			e.mu.Lock()
			if daemon {
				e.daemons--
			} else {
				e.procs--
			}
			e.runnable--
			if e.runnable == 0 {
				e.idle.Signal()
			}
			e.mu.Unlock()
		}()
		fn()
	}()
}

// Sleep blocks the calling process for d of virtual time. Non-positive
// durations yield without advancing the clock.
func (e *Engine) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	ch := make(chan struct{})
	e.mu.Lock()
	e.scheduleLocked(e.now+d, func() {
		e.mu.Lock()
		e.runnable++
		e.mu.Unlock()
		close(ch)
	})
	e.block()
	e.mu.Unlock()
	<-ch
}

// After schedules fn to run d from now (a negative d means now). fn
// executes in the scheduler's context: it must not block, but it may
// call After, Cancel, and Signal.Fire. It must not call Sleep or
// Signal.Wait.
func (e *Engine) After(d time.Duration, fn func()) *Timer {
	e.mu.Lock()
	defer e.mu.Unlock()
	at := e.now + d
	if d < 0 {
		at = e.now
	}
	return &Timer{e: e, ev: e.scheduleLocked(at, fn)}
}

// Cancel removes the timer if it has not fired. It reports whether the
// timer was pending.
func (t *Timer) Cancel() bool {
	if t == nil || t.ev == nil {
		return false
	}
	t.e.mu.Lock()
	defer t.e.mu.Unlock()
	if t.ev.index < 0 {
		return false
	}
	heap.Remove(&t.e.queue, t.ev.index)
	t.ev.index = -1
	return true
}

func (e *Engine) scheduleLocked(at time.Duration, fn func()) *event {
	ev := &event{at: at, seq: e.seq, fn: fn}
	e.seq++
	heap.Push(&e.queue, ev)
	return ev
}

// block marks the calling process as blocked; callers hold e.mu.
func (e *Engine) block() {
	e.runnable--
	if e.runnable == 0 {
		e.idle.Signal()
	}
}

// Run drives the simulation until every non-daemon process has finished
// or a deadlock is detected. It must be invoked from the
// host (non-simulated) goroutine, exactly once.
func (e *Engine) Run() error {
	e.mu.Lock()
	if e.running {
		e.mu.Unlock()
		return errors.New("sim: Run called twice")
	}
	e.running = true
	for {
		for e.runnable > 0 {
			e.idle.Wait()
		}
		if e.procs == 0 {
			e.mu.Unlock()
			return nil
		}
		if e.queue.Len() == 0 {
			e.mu.Unlock()
			return fmt.Errorf("%w (%d processes)", ErrDeadlock, e.procs)
		}
		ev := heap.Pop(&e.queue).(*event)
		ev.index = -1
		if ev.at > e.now {
			e.now = ev.at
		}
		// Run the callback without the lock so it can use the public
		// API (After, Fire, ...). The scheduler owns the clock meanwhile:
		// runnable may rise above zero while fn wakes processes, and
		// the top of the loop waits for quiescence again.
		e.mu.Unlock()
		ev.fn()
		e.mu.Lock()
	}
}

// Signal is a one-shot wake-up that simulated processes can Wait on.
// Fire may be called before, during, or after Wait, from processes or
// timer callbacks. Multiple waiters are all released by one Fire.
type Signal struct {
	e       *Engine
	fired   bool // guarded by e.mu
	waiters int  // guarded by e.mu
	ch      chan struct{}
}

// NewSignal returns an unfired signal bound to the engine.
func (e *Engine) NewSignal() *Signal {
	return &Signal{e: e, ch: make(chan struct{})}
}

// Wait blocks the calling process until the signal fires. Returns
// immediately if it already fired.
func (s *Signal) Wait() {
	s.e.mu.Lock()
	if s.fired {
		s.e.mu.Unlock()
		return
	}
	s.waiters++
	s.e.block()
	s.e.mu.Unlock()
	<-s.ch
}

// Fired reports whether the signal has fired.
func (s *Signal) Fired() bool {
	s.e.mu.Lock()
	defer s.e.mu.Unlock()
	return s.fired
}

// Fire releases all current and future waiters. Firing twice is a no-op.
func (s *Signal) Fire() {
	s.e.mu.Lock()
	if s.fired {
		s.e.mu.Unlock()
		return
	}
	s.fired = true
	close(s.ch)
	s.e.runnable += s.waiters
	s.waiters = 0
	s.e.mu.Unlock()
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *eventQueue) Push(x any) {
	ev := x.(*event)
	ev.index = len(*q)
	*q = append(*q, ev)
}
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}
