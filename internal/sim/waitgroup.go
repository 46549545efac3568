package sim

import "sync"

// WaitGroup is the simulation-aware analogue of sync.WaitGroup: Wait
// blocks the calling process in virtual time until every process
// started by Go has returned. Unlike sync.WaitGroup it may be safely
// awaited while those processes are blocked on simulation primitives.
type WaitGroup struct {
	e   *Engine
	mu  sync.Mutex
	n   int
	sig *Signal // non-nil while a wait round is open
}

// NewWaitGroup returns a WaitGroup bound to the engine.
func (e *Engine) NewWaitGroup() *WaitGroup {
	return &WaitGroup{e: e}
}

// Go spawns fn as a simulated process tracked by the WaitGroup.
func (w *WaitGroup) Go(fn func()) {
	w.mu.Lock()
	w.n++
	w.mu.Unlock()
	w.e.Go(func() {
		defer w.done()
		fn()
	})
}

// done counts one tracked process out, waking the waiters if it was
// the last.
func (w *WaitGroup) done() {
	w.mu.Lock()
	w.n--
	var sig *Signal
	if w.n == 0 && w.sig != nil {
		sig = w.sig
		w.sig = nil
	}
	w.mu.Unlock()
	if sig != nil {
		sig.Fire()
	}
}

// Wait blocks until the counter reaches zero.
func (w *WaitGroup) Wait() {
	w.mu.Lock()
	if w.n == 0 {
		w.mu.Unlock()
		return
	}
	if w.sig == nil {
		w.sig = w.e.NewSignal()
	}
	sig := w.sig
	w.mu.Unlock()
	sig.Wait()
}
