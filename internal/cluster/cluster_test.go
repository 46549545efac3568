package cluster

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/simnet"
)

func newSimEnv(nodes int) (*sim.Engine, *Sim) {
	eng := sim.NewEngine()
	net := simnet.New(eng, simnet.Grid5000(nodes))
	return eng, NewSim(net)
}

func TestSimEnvTopology(t *testing.T) {
	_, env := newSimEnv(60)
	if env.Nodes() != 60 {
		t.Fatalf("Nodes = %d", env.Nodes())
	}
	if env.Rack(0) != 0 || env.Rack(31) != 1 {
		t.Fatal("rack mapping wrong")
	}
}

func TestSimEnvChargesTime(t *testing.T) {
	eng, env := newSimEnv(8)
	var after time.Duration
	eng.Go(func() {
		env.Scatter(0, []NodeID{1}, 125<<20, 0) // 125 MB at 125 MB/s NIC = 1 s
		after = env.Now()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if after < 900*time.Millisecond || after > 1100*time.Millisecond {
		t.Fatalf("unicast took %v, want ~1s", after)
	}
}

func TestSimEnvRTTAndSleep(t *testing.T) {
	eng, env := newSimEnv(60)
	var rtt, slept time.Duration
	eng.Go(func() {
		t0 := env.Now()
		env.RTT(0, 45) // inter-rack: 2 x 500us
		rtt = env.Now() - t0
		t0 = env.Now()
		env.Sleep(3 * time.Second)
		slept = env.Now() - t0
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if rtt != time.Millisecond {
		t.Fatalf("inter-rack RTT = %v, want 1ms", rtt)
	}
	if slept != 3*time.Second {
		t.Fatalf("slept %v", slept)
	}
}

func TestSimEnvGatherDiskFraction(t *testing.T) {
	// A gather with diskFraction 1 from one source is disk-bound.
	eng, env := newSimEnv(8)
	var d time.Duration
	eng.Go(func() {
		t0 := env.Now()
		env.Gather(0, []NodeID{1}, 60<<20, 1.0) // 60 MB at 60 MB/s disk
		d = env.Now() - t0
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if d < 900*time.Millisecond {
		t.Fatalf("disk-backed gather took %v, want ~1s", d)
	}
}

func TestSimEnvPipelineWithDisks(t *testing.T) {
	eng, env := newSimEnv(8)
	var d time.Duration
	eng.Go(func() {
		t0 := env.Now()
		env.Pipeline(0, []NodeID{1, 2}, 60<<20, true)
		d = env.Now() - t0
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// min(NIC 125, disk 60) = 60 MB/s -> ~1s.
	if d < 900*time.Millisecond || d > 1200*time.Millisecond {
		t.Fatalf("pipeline took %v", d)
	}
}

func TestSimEnvWaitGroupAndSignal(t *testing.T) {
	eng, env := newSimEnv(4)
	var ran atomic.Int32
	eng.Go(func() {
		sig := env.NewSignal()
		wg := env.NewWaitGroup()
		for i := 0; i < 5; i++ {
			wg.Go(func() {
				sig.Wait()
				ran.Add(1)
			})
		}
		env.Sleep(time.Second)
		sig.Fire()
		wg.Wait()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 5 {
		t.Fatalf("ran = %d", ran.Load())
	}
}

func TestLocalEnvBasics(t *testing.T) {
	env := NewLocal(8, 4)
	if env.Nodes() != 8 || env.Rack(5) != 1 {
		t.Fatal("local topology wrong")
	}
	// Charges are instantaneous.
	t0 := time.Now()
	env.Scatter(0, []NodeID{1, 2}, 1<<30, 1)
	env.Gather(0, []NodeID{1, 2}, 1<<30, 1)
	env.Pipeline(0, []NodeID{1, 2}, 1<<30, true)
	env.DiskRead(0, 1<<30)
	env.DiskWrite(0, 1<<30)
	env.RTT(0, 1)
	if time.Since(t0) > 100*time.Millisecond {
		t.Fatal("local charges not instantaneous")
	}
	if env.Now() < 0 {
		t.Fatal("Now went backwards")
	}
}

func TestLocalSignal(t *testing.T) {
	env := NewLocal(2, 0)
	sig, fired := env.NewSignal(), env.NewSignal()
	fired.Fire()
	if sig.WaitOr(fired) {
		t.Fatal("new signal fired")
	}
	done := make(chan struct{})
	go func() {
		sig.Wait()
		close(done)
	}()
	sig.Fire()
	sig.Fire() // idempotent
	<-done
	if !sig.WaitOr(env.NewSignal()) {
		t.Fatal("WaitOr after Fire reports the other signal")
	}
	sig.Wait() // post-fire wait returns immediately
}

func TestLocalWaitGroup(t *testing.T) {
	env := NewLocal(2, 0)
	wg := env.NewWaitGroup()
	total := make(chan int, 10)
	for i := 0; i < 10; i++ {
		wg.Go(func() { total <- 1 })
	}
	wg.Wait()
	if len(total) != 10 {
		t.Fatalf("completed = %d", len(total))
	}
}

func TestFarthest(t *testing.T) {
	env := NewLocal(8, 4) // racks {0..3}, {4..7}
	for _, tc := range []struct {
		name  string
		nodes []NodeID
		want  NodeID
	}{
		{"same rack", []NodeID{0, 2, 1}, 2},
		{"other rack", []NodeID{1, 5, 2, 6}, 5},
		{"self only", []NodeID{0}, 0},
		{"empty", nil, 0},
	} {
		if got := Farthest(env, 0, tc.nodes); got != tc.want {
			t.Errorf("%s: Farthest(0, %v) = %d, want %d", tc.name, tc.nodes, got, tc.want)
		}
	}
}

func TestLocalRackDefaults(t *testing.T) {
	env := NewLocal(5, 0) // one rack
	for i := 0; i < 5; i++ {
		if env.Rack(NodeID(i)) != 0 {
			t.Fatal("single-rack default broken")
		}
	}
}
