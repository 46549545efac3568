// Package bench is the experiment harness that regenerates the paper's
// evaluation (§IV): the three microbenchmarks (E1-E3), the two
// application benchmarks (E4-E5), the future-work extensions (X1-X8)
// and the ablations (A1-A4, A6, A7) — Experiments in sweep.go is the
// authoritative list. Each run builds a fresh simulated
// Grid'5000-style cluster, deploys BSFS or HDFS on it, drives the
// paper's workload and reports throughput or job completion time.
package bench

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/bsfs"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fsapi"
	"repro/internal/hdfs"
	"repro/internal/placement"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/traffic"
)

// Byte units re-exported for workload sizing.
const (
	KB = simnet.KB
	MB = simnet.MB
	GB = simnet.GB
)

// ClusterSpec sizes the simulated testbed. The defaults reproduce the
// paper's setup: 270 nodes, node 0 hosting the masters (version
// manager, provider manager, namespace manager / namenode, jobtracker)
// and nodes 1..269 hosting providers/datanodes and clients.
type ClusterSpec struct {
	Nodes int
	// metaNodes is the number of metadata (DHT) providers for BSFS,
	// spread evenly over the storage nodes (default 24).
	metaNodes int
}

func (s *ClusterSpec) fillDefaults() {
	if s.Nodes <= 0 {
		s.Nodes = 270
	}
	if s.metaNodes <= 0 {
		s.metaNodes = 24
	}
	if s.metaNodes > s.Nodes-1 {
		s.metaNodes = s.Nodes - 1
	}
}

// StorageOpts selects and tunes the storage layer under test.
type StorageOpts struct {
	// Kind is "bsfs" or "hdfs".
	Kind string
	// replication is the data replica count (default 1, matching the
	// paper's throughput-focused deployment; 3 reproduces HDFS's
	// default pipeline).
	replication int
	// pageSize is BlobSeer's page size (default 256 KiB).
	pageSize int64
	// BlockSize is the BSFS block / HDFS chunk size (default 64 MiB).
	BlockSize int64
	// memCapacity bounds each storage node's RAM cache (default
	// 512 MiB — the knob that decides how much of a re-read comes off
	// disk).
	memCapacity int64
	// store selects the persistent backend tier beneath each storage
	// node's RAM cache ("disk:<path>", "mem:", "null:" — see
	// internal/store), scoped per member. Empty means RAM-only storage
	// nodes (the default for throughput experiments; the X7 tiered-
	// recovery experiment sets a disk spec).
	store string
	// localFirstPlacement grafts HDFS's placement policy onto BlobSeer
	// (ablation A1).
	localFirstPlacement bool
	// disableClientCache turns off BSFS's client-side block cache
	// (ablation A2).
	disableClientCache bool
	// ramDatanodes disables HDFS's write-through pipeline (ablation
	// A4): datanodes buffer chunks in RAM like BlobSeer providers.
	ramDatanodes bool
	// maxInFlightBlocks overrides the BSFS writer pipeline depth
	// (0 keeps the bsfs default).
	maxInFlightBlocks int
	// vmShards is the version-manager shard count (0/1 = the paper's
	// single centralized manager on node 0; more spreads shards over
	// the storage nodes and partitions blobs across them by id).
	vmShards int
	// vmServiceTime models each version-manager shard's per-RPC
	// processing occupancy (requests to one shard queue for this long
	// on its processor). 0 disables; the X5/A7 shard experiments set it
	// to make the version-manager tier the measured bottleneck.
	vmServiceTime time.Duration
}

func (o *StorageOpts) fillDefaults() {
	if o.replication < 1 {
		o.replication = 1
	}
	if o.pageSize <= 0 {
		o.pageSize = 256 * KB
	}
	if o.BlockSize <= 0 {
		o.BlockSize = 64 * MB
	}
	if o.memCapacity == 0 {
		o.memCapacity = 512 * MB
	}
}

// firstError keeps the first error the concurrent activities of one run
// report. Simulated processes are real goroutines between engine
// blocking points, so the slot needs a lock.
type firstError struct {
	mu  sync.Mutex
	err error
}

// set records err unless it is nil or an earlier error is held.
func (f *firstError) set(err error) {
	if err == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err == nil {
		f.err = err
	}
}

func (f *firstError) get() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// Testbed is one simulated cluster with a storage deployment.
type Testbed struct {
	spec ClusterSpec
	eng  *sim.Engine
	Net  *simnet.Network
	Env  *cluster.Sim
	// NewFS returns a storage client bound to a node.
	NewFS func(node cluster.NodeID) fsapi.FileSystem
	// kind echoes the storage under test.
	kind string

	bsfsSvc *bsfs.Service
	hdfsDep *hdfs.Deployment
}

// storageNodes lists nodes 1..N-1 (node 0 is the master host).
func storageNodes(n int) []cluster.NodeID {
	out := make([]cluster.NodeID, n-1)
	for i := range out {
		out[i] = cluster.NodeID(i + 1)
	}
	return out
}

// NewTestbed builds a fresh simulated cluster with the requested
// storage system deployed.
func NewTestbed(spec ClusterSpec, opts StorageOpts) (*Testbed, error) {
	spec.fillDefaults()
	opts.fillDefaults()
	eng := sim.NewEngine()
	net := simnet.New(eng, simnet.Grid5000(spec.Nodes))
	env := cluster.NewSim(net)
	tb := &Testbed{spec: spec, eng: eng, Net: net, Env: env, kind: opts.Kind}

	nodes := storageNodes(spec.Nodes)
	switch opts.Kind {
	case "bsfs":
		meta := make([]cluster.NodeID, 0, spec.metaNodes)
		step := len(nodes) / spec.metaNodes
		if step < 1 {
			step = 1
		}
		for i := 0; i < len(nodes) && len(meta) < spec.metaNodes; i += step {
			meta = append(meta, nodes[i])
		}
		var strategy placement.Strategy
		if opts.localFirstPlacement {
			strategy = placement.NewLocalFirst(nodes)
		}
		// Version-manager shards: shard 0 on the master node (node 0,
		// the paper's placement), extra shards spread evenly over the
		// storage nodes.
		shards := opts.vmShards
		if shards < 1 {
			shards = 1
		}
		vmNodes := []cluster.NodeID{0}
		for i := 1; i < shards; i++ {
			vmNodes = append(vmNodes, nodes[(i*len(nodes))/shards])
		}
		dep, err := core.NewDeployment(env, core.Options{
			PageSize:      opts.pageSize,
			Replication:   opts.replication,
			VMNodes:       vmNodes,
			VMServiceTime: opts.vmServiceTime,
			ProviderNodes: nodes,
			MetaNodes:     meta,
			Strategy:      strategy,
			Provider:      core.ProviderConfig{MemCapacity: opts.memCapacity, Store: opts.store},
		})
		if err != nil {
			return nil, err
		}
		tb.bsfsSvc = bsfs.NewService(dep, bsfs.Config{
			BlockSize:         opts.BlockSize,
			DisableCache:      opts.disableClientCache,
			MaxInFlightBlocks: opts.maxInFlightBlocks,
		})
		tb.NewFS = func(n cluster.NodeID) fsapi.FileSystem { return tb.bsfsSvc.NewFS(n) }
	case "hdfs":
		dep, err := hdfs.NewDeployment(env, hdfs.Config{
			NameNode:     0,
			DataNodes:    nodes,
			ChunkSize:    opts.BlockSize,
			Replication:  opts.replication,
			MemCapacity:  opts.memCapacity,
			Store:        opts.store,
			WriteThrough: !opts.ramDatanodes,
		})
		if err != nil {
			return nil, err
		}
		tb.hdfsDep = dep
		tb.NewFS = func(n cluster.NodeID) fsapi.FileSystem { return dep.NewFS(n) }
	default:
		return nil, fmt.Errorf("bench: unknown storage kind %q", opts.Kind)
	}
	return tb, nil
}

// deployment returns the BSFS core deployment (nil for hdfs testbeds):
// experiments that restart providers or inspect stores reach it here.
func (tb *Testbed) deployment() *core.Deployment {
	if tb.bsfsSvc == nil {
		return nil
	}
	return tb.bsfsSvc.Deployment()
}

// Close releases the storage-node stores (their backends, when
// StorageOpts.Store is set). It only touches files — no simulated-time
// operations — so it is safe to call after the engine has drained.
// RAM-only testbeds need no Close.
func (tb *Testbed) Close() error {
	var first error
	if tb.bsfsSvc != nil {
		for _, p := range tb.bsfsSvc.Deployment().ProviderList() {
			p.Stop()
			if err := p.Store().Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	if tb.hdfsDep != nil {
		if err := tb.hdfsDep.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// clientNodes spreads n clients over the storage nodes (clients are
// colocated with providers/datanodes, as on the paper's testbed).
func (tb *Testbed) clientNodes(n int) []cluster.NodeID {
	avail := tb.spec.Nodes - 1
	out := make([]cluster.NodeID, n)
	for i := range out {
		out[i] = cluster.NodeID(1 + (i*avail)/n)
	}
	return out
}

// loaderNode pairs every client with a distant loader: the node half a
// ring away, so pre-loaded data is never local to its reader.
func (tb *Testbed) loaderNode(client cluster.NodeID) cluster.NodeID {
	avail := tb.spec.Nodes - 1
	return cluster.NodeID(1 + (int(client)-1+avail/2)%avail)
}

// Run executes body as the simulation's root process and drives the
// engine to completion.
func (tb *Testbed) Run(body func()) error {
	tb.eng.Go(body)
	return tb.eng.Run()
}

// Point is one measured sweep point of a microbenchmark.
type Point struct {
	experiment string
	kind       string
	clients    int
	// perClientMBps is the mean per-client throughput; Min/Max bound
	// the distribution (the paper reports stability under concurrency).
	perClientMBps float64
	minMBps       float64
	maxMBps       float64
	aggregateMBps float64
	// duration is the makespan of the measured phase.
	duration time.Duration
	// netBytes / DiskBytes are the fabric resources consumed during
	// the measured phase (mechanism evidence: who hit disks, who moved
	// bytes).
	netBytes  int64
	diskBytes int64
	// P50/P90/P99 are quantiles of the per-client (or per-op, for
	// latency-oriented experiments like X8) completion-time
	// distribution — the tail the throughput means hide.
	p50 time.Duration
	p90 time.Duration
	p99 time.Duration
}

// phase is the measurement every experiment repeats (§IV): each node
// runs op at once, one call per client, and the Point summarizes the
// per-client durations, the makespan and the fabric bytes moved
// meanwhile. Every client is timed even when its op fails; the first
// error is returned. Call it from inside Run.
func (tb *Testbed) phase(label string, perClient int64, nodes []cluster.NodeID, op func(i int, node cluster.NodeID) error) (Point, error) {
	durations := make([]time.Duration, len(nodes))
	var opErr firstError
	net0, disk0 := resourceSnapshot(tb)
	start := tb.Env.Now()
	wg := tb.Env.NewWaitGroup()
	for i, node := range nodes {
		wg.Go(func() {
			t0 := tb.Env.Now()
			opErr.set(op(i, node))
			durations[i] = tb.Env.Now() - t0
		})
	}
	wg.Wait()
	p := summarize(label, tb.kind, perClient, durations, tb.Env.Now()-start)
	net1, disk1 := resourceSnapshot(tb)
	p.netBytes, p.diskBytes = net1-net0, disk1-disk0
	return p, opErr.get()
}

// resourceSnapshot sums the simnet counters.
func resourceSnapshot(tb *Testbed) (net, disk int64) {
	s := tb.Net.Stats()
	for i := range s.BytesUp {
		net += s.BytesUp[i]
		disk += s.BytesDisk[i]
	}
	return net, disk
}

func mbps(bytes int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / d.Seconds() / float64(MB)
}

// summarize builds a Point from per-client durations.
func summarize(exp, kind string, perClient int64, durations []time.Duration, makespan time.Duration) Point {
	p := Point{experiment: exp, kind: kind, clients: len(durations), duration: makespan}
	if len(durations) == 0 {
		return p
	}
	var sum float64
	for i, d := range durations {
		t := mbps(perClient, d)
		sum += t
		if i == 0 || t < p.minMBps {
			p.minMBps = t
		}
		if i == 0 || t > p.maxMBps {
			p.maxMBps = t
		}
	}
	p.perClientMBps = sum / float64(len(durations))
	p.aggregateMBps = mbps(perClient*int64(len(durations)), makespan)
	p.p50, p.p90, p.p99 = traffic.Quantiles(durations)
	return p
}
