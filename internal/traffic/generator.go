// generator.go implements the open-loop multi-tenant load generator:
// Poisson arrivals on the virtual clock, dispatched as independent
// processes so the arrival schedule never depends on completion — the
// independent-user traffic model (millions of users do not slow down
// because the storage system did).

package traffic

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/cluster"
)

// OpKind selects what one arrival does.
type OpKind int

const (
	// OpAppend appends one block to the target blob.
	OpAppend OpKind = iota
	// OpRead reads from the target blob's latest snapshot.
	OpRead
)

// Op is one generated arrival, handed to the caller's dispatch
// function. The generator decides who/what/where; the caller maps it
// onto actual blob operations.
type Op struct {
	Tenant      string // tenant id ("t0".."tN-1")
	TenantIndex int    // 0-based index behind Tenant
	Kind        OpKind
	Shared      bool // target the shared blob instead of the tenant's private one
	Seq         int  // arrival index, 0-based
}

// GenConfig parameterizes one open-loop run.
type GenConfig struct {
	// Tenants is the simulated tenant population; each arrival is
	// attributed to a uniformly random tenant (thinning the aggregate
	// Poisson process into independent per-tenant Poisson processes).
	Tenants int
	// Rate is the aggregate offered load in operations per second.
	Rate float64
	// Duration is the offered window of virtual time: arrivals stop
	// after it, but in-flight operations are always drained.
	Duration time.Duration
	// ReadFraction of arrivals are reads (the rest append).
	ReadFraction float64
	// SharedFraction of arrivals target the shared blob.
	SharedFraction float64
	// Seed drives the arrival process; same seed, same schedule.
	Seed int64
}

// Report summarizes one run. Latency is measured from arrival to
// completion, so downstream queueing is included — exactly what an
// open-loop client observes.
type Report struct {
	Offered   int // arrivals dispatched
	Completed int // finished without error
	Rejected  int // failed with ErrOverloaded (fast admission rejects)
	Failed    int // failed with any other error
	// MaxInflight is the in-flight high-water mark: bounded when
	// admission sheds over-rate work, growing with the backlog when it
	// does not.
	MaxInflight int
	// Latencies holds one sample per completed operation.
	Latencies     []time.Duration
	P50, P90, P99 time.Duration
	// FirstErr is the first non-overload failure, if any.
	FirstErr error
}

// Goodput returns completed operations per second of offered window,
// counting only operations that finished within slo (0 = no bound).
func (r *Report) Goodput(window time.Duration, slo time.Duration) float64 {
	if window <= 0 {
		return 0
	}
	n := 0
	for _, l := range r.Latencies {
		if slo <= 0 || l <= slo {
			n++
		}
	}
	return float64(n) / window.Seconds()
}

// Run drives the open-loop schedule: a single arrival process draws
// exponential inter-arrival gaps from the seeded RNG and spawns each
// operation as its own process via the environment's WaitGroup, then
// joins them all. The arrival clock only ever sleeps on the virtual
// clock — a slow or stuck dispatch never delays later arrivals; it
// just grows the in-flight count.
func Run(env cluster.Env, cfg GenConfig, do func(Op) error) *Report {
	if cfg.Tenants < 1 {
		cfg.Tenants = 1
	}
	if cfg.Rate <= 0 || cfg.Duration <= 0 {
		return &Report{}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	rep := &Report{}
	var mu sync.Mutex
	inflight := 0
	wg := env.NewWaitGroup()
	elapsed := time.Duration(0)
	for seq := 0; ; seq++ {
		gap := time.Duration(rng.ExpFloat64() / cfg.Rate * float64(time.Second))
		elapsed += gap
		if elapsed > cfg.Duration {
			break
		}
		ti := rng.Intn(cfg.Tenants)
		op := Op{
			Tenant:      fmt.Sprintf("t%d", ti),
			TenantIndex: ti,
			Seq:         seq,
		}
		if rng.Float64() < cfg.ReadFraction {
			op.Kind = OpRead
		}
		if rng.Float64() < cfg.SharedFraction {
			op.Shared = true
		}
		env.Sleep(gap)
		rep.Offered++
		mu.Lock()
		inflight++
		if inflight > rep.MaxInflight {
			rep.MaxInflight = inflight
		}
		mu.Unlock()
		wg.Go(func() {
			start := env.Now()
			err := do(op)
			lat := env.Now() - start
			mu.Lock()
			defer mu.Unlock()
			inflight--
			switch {
			case err == nil:
				rep.Completed++
				rep.Latencies = append(rep.Latencies, lat)
			case errors.Is(err, ErrOverloaded):
				rep.Rejected++
			default:
				rep.Failed++
				if rep.FirstErr == nil {
					rep.FirstErr = err
				}
			}
		})
	}
	wg.Wait()
	rep.P50, rep.P90, rep.P99 = Quantiles(rep.Latencies)
	return rep
}
