// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine multiplexes simulated processes (coroutines spawned with
// Engine.Go) over a virtual clock. One process, or the scheduler, runs
// at a time. The scheduler is a loop on the goroutine that called Run:
// it resumes the next ready process in FIFO order, which yields back
// once it blocks on a simulation primitive (Sleep, Signal.Wait) or
// returns; with none ready, it pops the earliest pending event and
// readies the process it wakes. Order within one virtual instant is thus
// event time, event sequence, then ready order: a function of the
// program alone. A wake never passes through the Go scheduler. Code
// running between blocking points is instantaneous in virtual time,
// which matches the modelling assumption of this repository: network and
// disk transfers consume time, CPU does not.
//
// With one runner a real mutex is never contended, and a real channel
// is fine as long as it never blocks: a process parked on a real mutex
// or channel never yields, so Run never regains control.
package sim

import (
	"container/heap"
	"errors"
	"fmt"
	"iter"
	"runtime"
	"slices"
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
	now     time.Duration
	queue   eventQueue
	seq     uint64
	procs   int     // live non-daemon processes
	ready   []*proc // FIFO of processes waiting to run
	head    int     // ready[head] is next
	cur     *proc   // the running process; nil while the scheduler runs
	spare   []*proc // processes whose body returned, their coroutines idle
	all     []*proc // every coroutine started, in start order
	running bool
	ending  bool // Run is ending its processes: a spawn starts nothing
}

// proc is a simulated process: a coroutine that runs only while Run has
// resumed it, and yields back to Run when it parks or its body returns.
type proc struct {
	next   func() (struct{}, bool) // resumes the coroutine until it yields
	yield  func(struct{}) bool     // inside the coroutine: back to Run
	fn     func()                  // the body; nil while the coroutine is spare
	daemon bool
	end    bool   // Run is ending the process: its park point unwinds it
	gen    uint64 // counts signal wakes: a waiter of an older gen is stale
	wake   event  // Sleep's event; a process sleeps at most once at a time
}

type event struct {
	at    time.Duration
	seq   uint64
	fn    func() // an After callback
	p     *proc  // or, for a Sleep, the process to wake
	index int    // heap index, -1 once removed
}

// Timer is a cancellable scheduled callback, allocated with its event.
type Timer struct {
	e  *Engine
	ev event
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time (elapsed since engine start).
func (e *Engine) Now() time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.now
}

// Go spawns fn as a simulated process. Run returns once all non-daemon
// processes have finished. The new process joins the back of the ready
// queue; the caller keeps running until it blocks. fn runs as a
// coroutine resumed from the goroutine that called Run, so what it does
// not return from surfaces there: a panic in fn comes out of Run, and a
// runtime.Goexit (t.FailNow) in fn ends Run's goroutine. Either leaves
// the engine unusable.
func (e *Engine) Go(fn func()) {
	e.spawn(fn, false)
}

// GoDaemon spawns fn as a daemon process: it does not keep Run alive,
// which ends the daemons still blocked once regular processes finish.
func (e *Engine) GoDaemon(fn func()) {
	e.spawn(fn, true)
}

func (e *Engine) spawn(fn func(), daemon bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.ending {
		return
	}
	var p *proc
	if n := len(e.spare); n > 0 {
		p, e.spare = e.spare[n-1], e.spare[:n-1]
	} else {
		p = &proc{}
		p.wake.p = p
		p.next, _ = iter.Pull(func(yield func(struct{}) bool) { e.loop(p, yield) })
		e.all = append(e.all, p)
	}
	p.fn, p.daemon = fn, daemon
	if !daemon {
		e.procs++
	}
	e.ready = append(e.ready, p)
}

// loop is the coroutine behind p. Each resume after a spawn runs one
// body, which yields back to Run wherever it parks; a returned body
// leaves p spare, yielding until spawn reuses it or Run ends it.
func (e *Engine) loop(p *proc, yield func(struct{}) bool) {
	p.yield = yield
	for {
		p.fn()
		e.mu.Lock()
		if !p.daemon {
			e.procs--
		}
		p.fn = nil
		e.spare = append(e.spare, p)
		e.mu.Unlock()
		if yield(struct{}{}); p.end {
			return
		}
	}
}

// parkLocked blocks the running process, after register has recorded
// what wakes it, by yielding back to Run. Callers hold e.mu; it is
// released on return. The scheduler (in an After callback) and the host
// goroutine have nothing to park, so op panics there. A process Run is
// ending exits here instead, by runtime.Goexit, so its deferred calls
// run; a park in them exits too.
func (e *Engine) parkLocked(op string, register func(p *proc)) {
	p := e.cur
	if p == nil {
		e.mu.Unlock()
		panic("sim: " + op + " called outside a simulated process (from an After callback or the host goroutine)")
	}
	if p.end {
		e.mu.Unlock()
		runtime.Goexit()
	}
	register(p)
	e.mu.Unlock()
	p.yield(struct{}{})
	if p.end {
		runtime.Goexit()
	}
}

// Sleep blocks the calling process for d of virtual time. Non-positive
// durations yield without advancing the clock. It panics outside a
// simulated process.
func (e *Engine) Sleep(d time.Duration) {
	e.mu.Lock()
	e.parkLocked("Sleep", func(p *proc) {
		p.wake.at = e.now + max(d, 0)
		e.pushLocked(&p.wake)
	})
}

// After schedules fn to run d from now (a negative d means now). fn
// executes in the scheduler's context, while no process runs: it must
// not block, but it may call After, Cancel, Go and Signal.Fire. Sleep
// and Signal.Wait panic there.
func (e *Engine) After(d time.Duration, fn func()) *Timer {
	e.mu.Lock()
	defer e.mu.Unlock()
	t := &Timer{e: e, ev: event{at: e.now + max(d, 0), fn: fn}}
	e.pushLocked(&t.ev)
	return t
}

// Cancel removes the timer if it has not fired. It reports whether the
// timer was pending.
func (t *Timer) Cancel() bool {
	if t == nil {
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

func (e *Engine) pushLocked(ev *event) {
	ev.seq = e.seq
	e.seq++
	heap.Push(&e.queue, ev)
}

// Run drives the simulation until every non-daemon process has finished
// or a deadlock is detected. It must be invoked from the host
// (non-simulated) goroutine, exactly once. Before it returns it ends
// every process still blocked, in start order, with the clock frozen:
// nothing runs in virtual time after Run decides to return.
func (e *Engine) Run() error {
	e.mu.Lock()
	if e.running {
		e.mu.Unlock()
		return errors.New("sim: Run called twice")
	}
	e.running = true
	for {
		if e.head < len(e.ready) {
			p := e.ready[e.head]
			e.ready[e.head] = nil
			e.head++
			if e.head == len(e.ready) {
				e.ready, e.head = e.ready[:0], 0
			}
			e.cur = p
			e.mu.Unlock()
			p.next() // until p parks or its body returns
			e.mu.Lock()
			e.cur = nil
			continue
		}
		if e.procs == 0 || e.queue.Len() == 0 {
			var err error
			if e.procs > 0 {
				err = fmt.Errorf("%w (%d processes)", ErrDeadlock, e.procs)
			}
			e.endLocked()
			return err
		}
		ev := heap.Pop(&e.queue).(*event)
		ev.index = -1
		e.now = max(e.now, ev.at)
		if ev.p != nil {
			e.ready = append(e.ready, ev.p)
			continue
		}
		// Run the callback without the lock so it can use the public
		// API (After, Fire, ...); it runs alone, as the scheduler.
		e.mu.Unlock()
		ev.fn()
		e.mu.Lock()
	}
}

// endLocked resumes each coroutine the engine started once more, in
// start order, and releases e.mu. A spare one returns. A blocked process
// runs its deferred calls alone, spawning nothing, from a helper
// goroutine: its runtime.Goexit comes out of whatever resumed it.
func (e *Engine) endLocked() {
	e.ending = true
	for _, p := range e.all {
		p.end, e.cur = true, p
		e.mu.Unlock()
		if p.fn == nil {
			p.next() // a spare returns
		} else {
			done := make(chan struct{})
			go func() {
				defer close(done)
				p.next()
			}()
			<-done
		}
		e.mu.Lock()
	}
	e.all, e.spare, e.cur = nil, nil, nil
	e.mu.Unlock()
}

// Signal is a one-shot wake-up that simulated processes can Wait on.
// Fire may be called before, during, or after Wait, from processes or
// timer callbacks. Multiple waiters are all released by one Fire, in
// the order they called Wait.
type Signal struct {
	e       *Engine
	fired   bool     // guarded by e.mu
	waiters []waiter // guarded by e.mu
}

// A waiter is a process parked on a signal, stale once its gen moved.
type waiter struct {
	p   *proc
	gen uint64
}

// NewSignal returns an unfired signal bound to the engine.
func (e *Engine) NewSignal() *Signal {
	return &Signal{e: e}
}

// Wait blocks the calling process until the signal fires. Returns
// immediately if it already fired; otherwise it panics outside a
// simulated process.
func (s *Signal) Wait() {
	s.e.mu.Lock()
	if s.fired {
		s.e.mu.Unlock()
		return
	}
	s.e.parkLocked("Signal.Wait", s.addLocked)
}

// WaitOr blocks the calling process until s or o fires, and reports
// whether s has, which it prefers when both have. Both must belong to
// one engine. Unless one fired, it panics outside a simulated process.
func (s *Signal) WaitOr(o *Signal) bool {
	s.e.mu.Lock()
	if !s.fired && !o.fired {
		s.e.parkLocked("Signal.WaitOr", func(p *proc) { s.addLocked(p); o.addLocked(p) })
		s.e.mu.Lock()
	}
	defer s.e.mu.Unlock()
	return s.fired
}

// addLocked parks p on s, first dropping the stale waiters WaitOr leaves
// if the list would grow, so a long-lived signal does not pile them up.
func (s *Signal) addLocked(p *proc) {
	if len(s.waiters) == cap(s.waiters) {
		s.waiters = slices.DeleteFunc(s.waiters, func(w waiter) bool { return w.gen != w.p.gen })
	}
	s.waiters = append(s.waiters, waiter{p, p.gen})
}

// Fire releases all current and future waiters. Firing twice is a no-op.
// The waiters join the back of the ready queue; the caller keeps running.
func (s *Signal) Fire() {
	s.e.mu.Lock()
	defer s.e.mu.Unlock()
	if !s.fired {
		s.fired = true
		for _, w := range s.waiters {
			if w.gen == w.p.gen {
				w.p.gen++
				s.e.ready = append(s.e.ready, w.p)
			}
		}
		s.waiters = nil
	}
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
