// limiter.go implements per-tenant admission: one lazily-created token
// bucket per tenant plus the admitted/rejected/inflight counters the
// BSFS.Tenants RPC exposes.

package traffic

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
)

// ErrOverloaded is the typed backpressure error: the operation was
// rejected at admission because its tenant is over rate. Match with
// errors.Is; errors.As against *OverloadedError recovers the
// retry-after hint. Re-exported as core.ErrOverloaded.
var ErrOverloaded = errors.New("traffic: tenant over admission rate")

// OverloadedError is the concrete rejection carrying the retry-after
// hint: the virtual time until the tenant's bucket next holds a full
// token. It matches ErrOverloaded under errors.Is.
type OverloadedError struct {
	Tenant     string
	RetryAfter time.Duration
}

func (e *OverloadedError) Error() string {
	return fmt.Sprintf("traffic: tenant %q over admission rate (retry after %s)", e.Tenant, e.RetryAfter)
}

// Is makes errors.Is(err, ErrOverloaded) match.
func (e *OverloadedError) Is(target error) bool { return errors.Is(target, ErrOverloaded) }

// Config parameterizes a Limiter: every tenant gets the same bucket.
type Config struct {
	// Rate is the admitted operations per second per tenant.
	Rate float64
	// Burst is the bucket depth (defaults to max(Rate, 1)).
	Burst float64
}

// TenantStats is one tenant's admission counters.
type TenantStats struct {
	Tenant   string
	Admitted uint64
	Rejected uint64
	Inflight int // admitted operations not yet released
}

type tenantState struct {
	b        *bucket
	admitted uint64
	rejected uint64
	inflight int
}

// Limiter admits or rejects operations per tenant against identical
// token buckets on the environment's virtual clock. Safe for
// concurrent use.
type Limiter struct {
	env   cluster.Env
	rate  float64
	burst float64

	mu      sync.Mutex
	tenants map[string]*tenantState
}

// NewLimiter builds a limiter; cfg.Rate must be positive.
func NewLimiter(env cluster.Env, cfg Config) *Limiter {
	if cfg.Burst <= 0 {
		cfg.Burst = cfg.Rate
		if cfg.Burst < 1 {
			cfg.Burst = 1
		}
	}
	return &Limiter{env: env, rate: cfg.Rate, burst: cfg.Burst, tenants: make(map[string]*tenantState)}
}

// Rate returns the per-tenant admitted rate (ops/sec).
func (l *Limiter) Rate() float64 { return l.rate }

// Burst returns the per-tenant bucket depth.
func (l *Limiter) Burst() float64 { return l.burst }

// Admit charges one operation to the tenant's bucket. On success it
// returns a release func the caller must invoke when the operation
// finishes (it decrements the in-flight gauge; calling it more than
// once is a no-op). On rejection it returns an *OverloadedError — the
// caller fails fast and must not queue the work. The empty tenant
// bypasses admission entirely (internal traffic is never rejected).
func (l *Limiter) Admit(tenant string) (release func(), err error) {
	if tenant == "" {
		return func() {}, nil
	}
	now := l.env.Now()
	l.mu.Lock()
	ts, ok := l.tenants[tenant]
	if !ok {
		ts = &tenantState{b: newBucket(l.rate, l.burst, now)}
		l.tenants[tenant] = ts
	}
	admitted, retryAfter := ts.b.take(now)
	if !admitted {
		ts.rejected++
		l.mu.Unlock()
		return nil, &OverloadedError{Tenant: tenant, RetryAfter: retryAfter}
	}
	ts.admitted++
	ts.inflight++
	l.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			l.mu.Lock()
			ts.inflight--
			l.mu.Unlock()
		})
	}, nil
}

// Stats snapshots every tenant's counters, sorted by tenant id.
func (l *Limiter) Stats() []TenantStats {
	l.mu.Lock()
	out := make([]TenantStats, 0, len(l.tenants))
	for id, ts := range l.tenants {
		out = append(out, TenantStats{Tenant: id, Admitted: ts.admitted, Rejected: ts.rejected, Inflight: ts.inflight})
	}
	l.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}
