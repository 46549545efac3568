package cluster

import (
	"errors"
	"runtime"
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

// TestCanceledWaitsLeaveNothing: Wait is one wait on the signal and the
// cancellation, so 100 waits on signals that never fire, each
// canceled, return ErrCanceled and leave no goroutine behind, under
// either environment.
func TestCanceledWaitsLeaveNothing(t *testing.T) {
	const waits = 100
	check := func(env string, errs []error, base int) {
		t.Helper()
		for i, err := range errs {
			if !errors.Is(err, ErrCanceled) {
				t.Fatalf("%s: wait %d = %v, want ErrCanceled", env, i, err)
			}
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines after %d canceled waits, %d before", env, runtime.NumGoroutine(), waits, base)
			}
			time.Sleep(time.Millisecond)
		}
	}

	base := runtime.NumGoroutine()
	local := NewLocal(2, 0)
	cancels := make([]func(), waits)
	done := make(chan error, waits)
	for i := range cancels {
		var ctx *Ctx
		ctx, cancels[i] = WithCancel(local)
		go func() { done <- ctx.Wait(local.NewSignal()) }()
	}
	time.Sleep(20 * time.Millisecond) // the waits park before their cancel
	errs := make([]error, waits)
	for i, cancel := range cancels {
		cancel()
		errs[i] = <-done
	}
	check("Local", errs, base)

	base = runtime.NumGoroutine()
	eng := sim.NewEngine()
	env := NewSim(simnet.New(eng, simnet.Grid5000(4)))
	errs = make([]error, waits)
	eng.Go(func() {
		for i := range errs {
			ctx, cancel := WithCancel(env)
			env.Go(func() {
				env.Sleep(time.Millisecond)
				cancel()
			})
			errs[i] = ctx.Wait(env.NewSignal())
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	check("Sim", errs, base)
}
