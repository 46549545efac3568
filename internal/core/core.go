// core.go wires a BlobSeer deployment: Options, the service fleet
// (version-manager tier, placement manager, providers, metadata DHT,
// rebalancer), and client construction. The package contract lives in
// doc.go.

package core

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/dht"
	"repro/internal/placement"
	"repro/internal/store"
	"repro/internal/traffic"
)

// Options configures a BlobSeer deployment.
type Options struct {
	// PageSize is the default page size for new blobs (bytes).
	PageSize int64
	// Replication is the page replica count.
	Replication int
	// VMNodes hosts the version-manager shards, one per entry: blobs
	// are partitioned across them by id (shard = id mod len(VMNodes)),
	// and each shard runs its own blob table and publication
	// frontiers. The first entry also hosts the placement
	// manager and the rebalancer. Empty means a single shard on node 0,
	// the paper's centralized manager.
	VMNodes []cluster.NodeID
	// VMServiceTime models each shard's per-RPC processing occupancy
	// in the simulated environment: requests to one shard queue for
	// this long on its (single-threaded) processor. 0 — the default,
	// and the only sensible value in the Local env, where Sleep burns
	// real time — disables the model. The X5 experiment sets it to make
	// the version-manager tier the measured bottleneck.
	VMServiceTime time.Duration
	// ProviderNodes host page providers.
	ProviderNodes []cluster.NodeID
	// MetaNodes host the metadata DHT (defaults to ProviderNodes).
	MetaNodes []cluster.NodeID
	// Provider configures every provider's local store.
	Provider ProviderConfig
	// Strategy overrides the write-time page placement. Its one setter
	// is the A1 ablation's local-first arm in internal/bench. Default:
	// every page goes to its ring-preferred owners, so placement,
	// repair and rebalance agree on where data should live.
	Strategy placement.Strategy
	// PlacementInterval enables the background placement loop: every
	// interval the Rebalancer re-evaluates every page of every blob's
	// latest snapshot against the membership, re-replicating degraded
	// pages and migrating misplaced ones. 0 disables the sweep;
	// SweepOnce stays available on demand.
	PlacementInterval time.Duration
	// HeartbeatInterval enables the placement manager's background
	// health checker: every interval each provider is probed and
	// consecutive misses mark it down (a success marks it up again).
	// 0 leaves health checking to the on-demand probes the placement
	// loop runs before each evaluation.
	HeartbeatInterval time.Duration
	// TenantRate enables per-tenant token-bucket admission at the
	// client edge: operations tagged with WithTenant are admitted at
	// this many ops/sec per tenant (bucket depth TenantBurst) and
	// rejected with ErrOverloaded beyond it — fail-fast backpressure
	// instead of unbounded queueing. 0 (the default) disables
	// admission; untenanted operations always bypass it.
	TenantRate float64
	// TenantBurst is the admission bucket depth in operations
	// (default max(TenantRate, 1)).
	TenantBurst float64

	// metaReplication is the DHT replica count (default 1). No command
	// or experiment replicates metadata; the fault tests set it.
	metaReplication int
}

const (
	// metaVNodes is the metadata DHT's consistent-hashing virtual node
	// count per member.
	metaVNodes = 32
	// metaCacheShards is the lock-stripe count of each client's
	// metadata cache (a power of two).
	metaCacheShards = 16
)

func (o *Options) fillDefaults() {
	if o.PageSize <= 0 {
		o.PageSize = 256 << 10
	}
	if len(o.VMNodes) == 0 {
		o.VMNodes = []cluster.NodeID{0}
	}
	if o.Replication < 1 {
		o.Replication = 1
	}
	if len(o.MetaNodes) == 0 {
		o.MetaNodes = o.ProviderNodes
	}
	if o.metaReplication < 1 {
		o.metaReplication = 1
	}
}

// Deployment is a running BlobSeer service fleet.
type Deployment struct {
	Env  cluster.Env
	Opts Options
	// VM is the version-manager tier: the router over the shards on
	// Opts.VMNodes (a single shard by default).
	VM *VersionRouter
	// Placement is the single placement authority: membership, health,
	// the ring, and write-time replica selection.
	Placement *placement.Manager
	Meta      *dht.Cluster
	// Rebalance drives the unified repair/rebalance loop.
	Rebalance *Rebalancer
	// Admission is the per-tenant token-bucket limiter guarding the
	// client edge (nil when Opts.TenantRate is 0). rpcnet shares it,
	// so client-library and RPC ingress draw from the same buckets,
	// and the BSFS.Tenants RPC serves its counters.
	Admission *traffic.Limiter

	provMu sync.RWMutex
	provs  map[cluster.NodeID]*Provider
}

// NewDeployment starts BlobSeer services on the environment's nodes.
func NewDeployment(env cluster.Env, opts Options) (*Deployment, error) {
	opts.fillDefaults()
	if len(opts.ProviderNodes) == 0 {
		return nil, fmt.Errorf("core: deployment needs at least one provider node")
	}
	d := &Deployment{
		Env:   env,
		Opts:  opts,
		VM:    newVersionRouter(env, opts),
		Meta:  dht.NewCluster(opts.MetaNodes, metaVNodes, opts.metaReplication),
		provs: make(map[cluster.NodeID]*Provider, len(opts.ProviderNodes)),
	}
	if opts.TenantRate > 0 {
		d.Admission = traffic.NewLimiter(env, traffic.Config{Rate: opts.TenantRate, Burst: opts.TenantBurst})
	}
	for _, n := range opts.ProviderNodes {
		p, err := d.startProvider(n)
		if err != nil {
			return nil, err
		}
		d.provs[n] = p
	}
	d.Placement = placement.NewManager(env, opts.VMNodes[0], opts.ProviderNodes, placement.Config{
		Strategy:          opts.Strategy,
		Probe:             d.probeProvider,
		HeartbeatInterval: opts.HeartbeatInterval,
		// The probe asks the provider object itself, not a lossy network
		// path, so a single miss is authoritative: one CheckNow round
		// (the placement loop runs one before every evaluation) sees the
		// true fleet.
		FailAfter: 1,
	})
	d.Rebalance = newRebalancer(d, opts.VMNodes[0])
	if opts.PlacementInterval > 0 {
		env.Daemon(func() { d.Rebalance.sweepLoop(opts.PlacementInterval) })
	}
	return d, nil
}

func (d *Deployment) startProvider(n cluster.NodeID) (*Provider, error) {
	cfg := d.Opts.Provider
	// Scope the fleet-wide backend spec to this member: each provider
	// owns its own directory under a disk spec, so a restarted provider
	// reopens exactly the pages it persisted.
	cfg.Store = store.SubSpec(cfg.Store, fmt.Sprintf("provider-%d", n))
	p, err := newProvider(d.Env, n, cfg)
	if err != nil {
		return nil, fmt.Errorf("core: provider on node %d: %w", n, err)
	}
	return p, nil
}

// RestartProvider stops the provider on node — a clean shutdown: the
// store flushes and closes — and starts a fresh one over the same
// backend spec, recovering the page index from the persisted log. It
// returns the number of recovered pages. With no durable backend the
// restarted provider comes back empty (and recovered is 0); reads then
// fail over to replicas until the placement loop re-replicates.
func (d *Deployment) RestartProvider(node cluster.NodeID) (recovered int, err error) {
	d.provMu.Lock()
	old := d.provs[node]
	if old == nil {
		d.provMu.Unlock()
		return 0, fmt.Errorf("core: node %d hosts no provider", node)
	}
	old.Stop()
	if cerr := old.Store().Close(); cerr != nil {
		d.provMu.Unlock()
		return 0, fmt.Errorf("core: closing provider on node %d: %w", node, cerr)
	}
	p, err := d.startProvider(node)
	if err != nil {
		delete(d.provs, node)
		d.provMu.Unlock()
		return 0, err
	}
	d.provs[node] = p
	d.provMu.Unlock()
	return p.Store().Stats().Recovered, nil
}

// probeProvider is the placement manager's health probe: a provider is
// healthy when it exists and answers (failure injection flips IsDown).
func (d *Deployment) probeProvider(n cluster.NodeID) bool {
	p := d.Provider(n)
	return p != nil && !p.IsDown()
}

// Provider returns the provider on a node (nil if none). The provider
// table changes under AddProvider, RemoveProvider and RestartProvider,
// so callers look a provider up per use instead of holding it.
func (d *Deployment) Provider(n cluster.NodeID) *Provider {
	d.provMu.RLock()
	defer d.provMu.RUnlock()
	return d.provs[n]
}

// ProviderList returns a snapshot of all providers, sorted by node.
func (d *Deployment) ProviderList() []*Provider {
	d.provMu.RLock()
	out := make([]*Provider, 0, len(d.provs))
	for _, p := range d.provs {
		out = append(out, p)
	}
	d.provMu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Node() < out[j].Node() })
	return out
}

// AddProvider starts a provider on node and joins it to the placement
// membership: the node immediately becomes a preferred owner for its
// ring share, and the background placement loop migrates those pages
// onto it.
func (d *Deployment) AddProvider(node cluster.NodeID) (*Provider, error) {
	d.provMu.Lock()
	if _, ok := d.provs[node]; ok {
		d.provMu.Unlock()
		return nil, fmt.Errorf("core: node %d already hosts a provider", node)
	}
	p, err := d.startProvider(node)
	if err != nil {
		d.provMu.Unlock()
		return nil, err
	}
	d.provs[node] = p
	d.provMu.Unlock()
	// Join after the provider is reachable: placement routes pages to a
	// member as soon as it joins, so it must be servable by then.
	if err := d.Placement.Join(node); err != nil {
		d.provMu.Lock()
		delete(d.provs, node)
		d.provMu.Unlock()
		p.Stop()
		p.Store().Close()
		return nil, err
	}
	return p, nil
}

// RemoveProvider removes a provider from the membership and stops it.
// Pages whose leaves still list the node lose that replica (reads fail
// over; the placement loop restores replication). Drain first for a
// graceful exit.
func (d *Deployment) RemoveProvider(node cluster.NodeID) error {
	if err := d.Placement.Leave(node); err != nil {
		return err
	}
	d.provMu.Lock()
	p := d.provs[node]
	delete(d.provs, node)
	d.provMu.Unlock()
	if p != nil {
		p.Stop()
		p.Store().Close()
	}
	return nil
}

// DrainProvider marks a provider draining: it keeps serving reads but
// receives no new placements, and the placement loop migrates its pages
// to the remaining preferred owners. Call RemoveProvider once drained.
func (d *Deployment) DrainProvider(node cluster.NodeID) error {
	return d.Placement.Drain(node)
}

// NewClient returns a client bound to a node.
func (d *Deployment) NewClient(node cluster.NodeID) *Client {
	return &Client{
		d:         d,
		node:      node,
		meta:      newCachedMeta(d.Meta.NewClient(d.Env, node), metaCacheShards, 1<<16),
		pageSizes: make(map[BlobID]int64),
	}
}

// Close stops the placement loop, the health checker and the
// providers' flushing, and closes the provider stores.
func (d *Deployment) Close() error {
	d.Rebalance.stop()
	d.Placement.Close()
	var first error
	for _, p := range d.ProviderList() {
		p.Stop()
		if err := p.Store().Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
