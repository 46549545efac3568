// fairness_test.go checks the group-commit drainer's cross-tenant
// fairness: with the modeled per-request apply occupancy and a bounded
// pass budget, a hot tenant's deep publish backlog must not delay a
// quiet tenant's single publish by the backlog's length — round-robin
// batch assembly bounds the wait to roughly one pass.
package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/simnet"
)

func TestGroupCommitFairAcrossTenants(t *testing.T) {
	const (
		apply      = time.Millisecond // drainer occupancy per request
		drainBatch = 8                // pass budget
		hogChunk   = 8
		hogChunks  = 25 // hog backlog: 200 requests
		quiets     = 6
	)
	eng := sim.NewEngine()
	env := cluster.NewSim(simnet.New(eng, simnet.Grid5000(4)))
	vm := NewVersionManager(env, 0)
	vm.applyTime, vm.drainBatch = apply, drainBatch

	hogTotal := hogChunks * hogChunk
	var quietLat [quiets]time.Duration
	var hogDrain time.Duration
	eng.Go(func() {
		hogBlob, err := vm.CreateBlob(1, 128)
		if err != nil {
			t.Error(err)
			return
		}
		quietBlobs := make([]BlobID, quiets)
		for i := range quietBlobs {
			id, err := vm.CreateBlob(1, 128)
			if err != nil {
				t.Error(err)
				return
			}
			quietBlobs[i] = id
		}
		intents := make([]WriteIntent, hogTotal)
		for i := range intents {
			intents[i] = WriteIntent{Off: -1, Length: 128, Tenant: "hog"}
		}
		if _, err := vm.RequestTickets(1, hogBlob, intents, 0); err != nil {
			t.Error(err)
			return
		}
		// Enqueue the hog backlog as concurrent chunked publishes: each
		// chunk is one enqueue group under the "hog" FIFO. The publishers
		// block until applied, so they run as siblings.
		start := env.Now()
		wg := env.NewWaitGroup()
		for c := 0; c < hogChunks; c++ {
			vs := make([]Version, hogChunk)
			for i := range vs {
				vs[i] = Version(c*hogChunk + i + 1)
			}
			wg.Go(func() {
				if err := vm.PublishBatchAsync(1, hogBlob, vs); err != nil {
					t.Error(err)
				}
			})
		}
		// Let every hog publisher reach its enqueue before the quiet
		// tenants arrive: the backlog is fully queued first.
		env.Sleep(apply / 2)
		for i := 0; i < quiets; i++ {
			wg.Go(func() {
				ts, err := vm.RequestTickets(1, quietBlobs[i],
					[]WriteIntent{{Off: -1, Length: 128, Tenant: fmt.Sprintf("q%d", i)}}, 0)
				if err != nil {
					t.Error(err)
					return
				}
				t0 := env.Now()
				if err := publish1(vm, cluster.Background(), 1, quietBlobs[i], ts[0].Record.Version); err != nil {
					t.Error(err)
					return
				}
				quietLat[i] = env.Now() - t0
			})
		}
		wg.Wait()
		if err := vm.AwaitPublished(cluster.Background(), 1, hogBlob, Version(hogTotal)); err != nil {
			t.Error(err)
			return
		}
		hogDrain = env.Now() - start
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}

	// The hog backlog really occupied the drainer: >= one applyTime per
	// request.
	if min := time.Duration(hogTotal) * apply; hogDrain < min {
		t.Fatalf("hog backlog drained in %s, want >= %s of modeled occupancy", hogDrain, min)
	}
	// Fairness bound: a quiet publish waits for at most the in-progress
	// pass plus its own round-robin turn — a few pass budgets of apply
	// occupancy, nowhere near the hog backlog's drain time. A FIFO
	// drainer would hold every quiet tenant for the full backlog.
	bound := 4 * drainBatch * apply
	for i, lat := range quietLat {
		t.Logf("quiet tenant %d publish latency %s (hog backlog drain %s)", i, lat, hogDrain)
		if lat > bound {
			t.Errorf("quiet tenant %d waited %s, want <= %s (round-robin bound)", i, lat, bound)
		}
		if lat*4 > hogDrain {
			t.Errorf("quiet tenant %d latency %s not clearly below hog drain %s", i, lat, hogDrain)
		}
	}
}
