// Package traffic is the serving layer's admission and load-modeling
// toolkit: per-tenant token-bucket admission control and an open-loop
// multi-tenant load generator, both running entirely on the cluster
// environment's virtual clock.
//
// # Admission contract
//
// A Limiter holds one token bucket per tenant, refilled continuously at
// Rate tokens per second up to Burst tokens, on the environment's
// virtual clock (never wall time). Every admitted operation costs one
// token. The contract:
//
//   - Work inside a tenant's rate is ADMITTED: it proceeds immediately
//     and is never queued by the limiter. Queueing downstream (the
//     version manager's service model, provider I/O) still applies —
//     admission bounds how much of it a tenant can create.
//   - Work beyond the rate is REJECTED, not queued: Admit fails fast
//     with an error matching ErrOverloaded that carries a retry-after
//     hint (when the bucket will next hold a full token). The caller
//     never blocks, no server-side state is created — in particular, a
//     rejected write holds no version ticket, so the publication
//     frontier can never wedge on rejected work.
//   - Untenanted operations (empty tenant id) bypass admission
//     entirely: internal traffic — repair sweeps, boundary-page merges,
//     the test suite — is never rejected.
//
// Per tenant the limiter counts admitted and rejected operations and
// tracks the in-flight gauge (admitted minus released); Stats exposes
// the counters, which bsfsd serves over the BSFS.Tenants RPC and
// blobctl's `tenants` command renders.
//
// # Fairness contract
//
// Admission is the whole contract: it caps each tenant's rate at the
// ingress edge (core's WithTenant option, rpcnet's request frames), so
// no tenant can put more than its share of work into the system.
// Nothing downstream knows tenants: each publish call resolves under
// the version manager's lock in the caller, so a hot tenant's backlog
// on one blob does not hold up a publish on another.
//
// # Open-loop load
//
// Generator drives Poisson arrivals — exponential inter-arrival gaps
// from a seeded deterministic RNG — across simulated tenants. The
// arrival schedule is open-loop: it depends only on the virtual clock
// and the seed, never on operation completion, so when the system
// falls behind, late operations queue (in-flight count grows) instead
// of stalling the arrival clock — the independent-user traffic model
// that closed-loop benchmarks cannot produce. Each arrival issues an
// append or read against a shared or tenant-private blob; the report
// captures goodput, latency quantiles (p50/p90/p99) and the in-flight
// high-water mark.
package traffic
