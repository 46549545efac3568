package cluster

import (
	"errors"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/simnet"
)

func TestBackgroundNeverCanceled(t *testing.T) {
	bg := Background()
	if bg.Err() != nil || bg.Done() {
		t.Fatal("Background reports cancellation")
	}
	var nilCtx *Ctx
	if nilCtx.Err() != nil || nilCtx.Done() {
		t.Fatal("nil Ctx reports cancellation")
	}
	// Wait on a fired signal returns immediately.
	env := NewLocal(2, 0)
	sig := env.NewSignal()
	sig.Fire()
	if err := bg.Wait(sig); err != nil {
		t.Fatalf("Background.Wait = %v", err)
	}
}

func TestWithCancelLocal(t *testing.T) {
	env := NewLocal(2, 0)
	ctx, cancel := WithCancel(env)
	if ctx.Err() != nil {
		t.Fatal("fresh ctx already canceled")
	}
	cancel()
	if !errors.Is(ctx.Err(), ErrCanceled) {
		t.Fatalf("Err = %v, want ErrCanceled", ctx.Err())
	}
	cancel() // idempotent
	if !errors.Is(ctx.Err(), ErrCanceled) {
		t.Fatalf("Err after double cancel = %v", ctx.Err())
	}
	// Wait on a never-fired signal returns the cancellation error.
	sig := env.NewSignal()
	if err := ctx.Wait(sig); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Wait = %v, want ErrCanceled", err)
	}
	sig.Fire() // release the parked watcher goroutine
}

func TestWaitWakesOnCancel(t *testing.T) {
	env := NewLocal(2, 0)
	ctx, cancel := WithCancel(env)
	sig := env.NewSignal() // never fires before cancel
	done := make(chan error, 1)
	go func() { done <- ctx.Wait(sig) }()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("Wait = %v, want ErrCanceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Wait did not wake on cancel")
	}
	sig.Fire()
}

func TestWaitPrefersFiredSignal(t *testing.T) {
	env := NewLocal(2, 0)
	ctx, cancel := WithCancel(env)
	defer cancel()
	sig := env.NewSignal()
	done := make(chan error, 1)
	go func() { done <- ctx.Wait(sig) }()
	time.Sleep(2 * time.Millisecond)
	sig.Fire()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Wait after signal fired = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Wait did not wake on signal")
	}
}

// TestCancelWakesWaitInVirtualTime: a deadline is a daemon that sleeps
// in the environment's time and then cancels. In the simulator the
// parked Wait wakes after exactly d of *virtual* time, which
// context.Context cannot express.
func TestCancelWakesWaitInVirtualTime(t *testing.T) {
	eng := sim.NewEngine()
	net := simnet.New(eng, simnet.Grid5000(4))
	env := NewSim(net)
	const d = 5 * time.Millisecond
	eng.Go(func() {
		ctx, cancel := WithCancel(env)
		env.Daemon(func() {
			env.Sleep(d)
			cancel()
		})
		if ctx.Err() != nil {
			t.Error("canceled before any time passed")
		}
		// Waiting on a never-fired signal wakes exactly at the deadline.
		start := env.Now()
		if err := ctx.Wait(env.NewSignal()); !errors.Is(err, ErrCanceled) {
			t.Errorf("Wait = %v, want ErrCanceled", err)
		}
		if woke := env.Now() - start; woke != d {
			t.Errorf("woke after %v of virtual time, want %v", woke, d)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}
