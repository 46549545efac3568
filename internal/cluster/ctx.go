// ctx.go implements op-scoped cancellation for cluster services. The
// standard library's context.Context cannot be used here: its
// deadlines are wall-clock timers, while this repository's services
// run in *virtual* time under the Sim environment, and its Done channel
// is a channel the sim scheduler cannot see. Ctx rebuilds the
// cancellation contract on the environment's own primitives (Signal for
// the done channel), so one implementation is correct under both the
// Sim and Local environments. A deadline is a daemon that sleeps in the
// environment's time and then calls cancel.
//
// The contract mirrors context.Context where it matters:
//
//   - Background() is the never-canceled root, valid in any environment.
//   - WithCancel returns the Ctx and a cancel function; the caller must
//     call cancel when the operation completes to release the watcher
//     resources promptly.
//   - Err() is nil until cancellation, then ErrCanceled.
//   - Wait(sig) parks until sig fires or the Ctx is canceled, whichever
//     comes first — the one blocking primitive services need to make
//     every await path cancellable.

package cluster

import (
	"errors"
	"sync"
)

// ErrCanceled is the typed error every canceled operation surfaces.
// Services wrap it with operation context; callers match it with
// errors.Is.
var ErrCanceled = errors.New("cluster: operation canceled")

// Ctx scopes one operation: it carries a cancellation signal in the
// owning environment. A nil or Background Ctx is never canceled. Ctx
// is safe for concurrent use.
type Ctx struct {
	env  Env
	done Signal // nil for Background: never canceled

	mu  sync.Mutex
	err error
	// waiters are the combined signals of in-flight Wait calls, fired
	// on cancel and deregistered when their Wait returns — so a
	// long-lived Ctx accumulates no parked watchers across operations.
	waiters []Signal
}

var background = &Ctx{}

// Background returns the root Ctx: never canceled, no deadline, usable
// in any environment. Operations that take options default to it.
func Background() *Ctx { return background }

// WithCancel derives a cancellable Ctx on env. The returned cancel
// function cancels it with ErrCanceled; calling cancel more than once
// is a no-op. Callers should defer cancel() so watcher daemons parked
// on the Ctx are released when the operation completes.
func WithCancel(env Env) (*Ctx, func()) {
	c := &Ctx{env: env, done: env.NewSignal()}
	return c, c.cancel
}

func (c *Ctx) cancel() {
	if c == nil || c.done == nil {
		return // Background is never canceled
	}
	c.mu.Lock()
	if c.err == nil {
		c.err = ErrCanceled
	}
	ws := c.waiters
	c.waiters = nil
	c.mu.Unlock()
	c.done.Fire()
	for _, w := range ws {
		w.Fire()
	}
}

// Err returns nil while the operation may proceed and ErrCanceled after
// cancellation.
func (c *Ctx) Err() error {
	if c == nil || c.done == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Done reports whether the Ctx has been canceled. It is the cheap
// check fan-out loops use between operations.
func (c *Ctx) Done() bool { return c.Err() != nil }

// Wait parks until sig fires or the Ctx is canceled. It returns nil
// when the signal fired (even if cancellation raced it and lost) and
// the cancellation error otherwise. On a Background Ctx it degenerates
// to sig.Wait().
func (c *Ctx) Wait(sig Signal) error {
	if c == nil || c.done == nil {
		sig.Wait()
		return nil
	}
	if sig.Fired() {
		return nil
	}
	// Register a combined signal: cancel() fires it directly (no
	// parked per-call watcher on the Ctx side), and one daemon relays
	// sig — that daemon unwinds when sig fires, which every
	// publication and completion signal eventually does.
	either := c.env.NewSignal()
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return err
	}
	c.waiters = append(c.waiters, either)
	c.mu.Unlock()
	c.env.Daemon(func() {
		sig.Wait()
		either.Fire()
	})
	either.Wait()
	c.mu.Lock()
	for i, w := range c.waiters {
		if w == either {
			c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
			break
		}
	}
	c.mu.Unlock()
	if sig.Fired() {
		return nil
	}
	return c.Err()
}
