// Package cluster abstracts the execution environment shared by every
// service in this repository (BlobSeer, BSFS, HDFS, MapReduce): where a
// component runs (a node), how long data movement takes, and how
// concurrent activities are spawned and joined.
//
// Two implementations exist:
//
//   - Sim: backed by sim.Engine + simnet.Network. Data movement and disk
//     I/O advance virtual time and contend for modelled resources. This
//     is the environment the paper-scale experiments run in.
//   - Local: instantaneous timing with real goroutines. This is the
//     environment unit tests, examples and the TCP deployment use; all
//     byte movement is real and immediate.
//
// Service code is written once against Env and behaves identically in
// both environments except for the passage of time.
package cluster

import (
	"sync"
	"time"

	"repro/internal/sim"
	"repro/internal/simnet"
)

// NodeID identifies a cluster node.
type NodeID = simnet.NodeID

// WaitGroup joins concurrent activities spawned through an Env.
type WaitGroup interface {
	// Go runs fn as a tracked concurrent activity.
	Go(fn func())
	// Wait blocks until every activity started by Go has returned.
	Wait()
}

// Signal is a one-shot wake-up usable across the environment's notion
// of time. Fire releases all current and future waiters; firing twice
// is a no-op. WaitOr waits until this signal or o fires and reports
// whether this one has, which it prefers when both have; o must come
// from the same Env.
type Signal interface {
	Wait()
	Fire()
	WaitOr(o Signal) bool
}

// Env is the execution environment for cluster services.
type Env interface {
	// Nodes returns the number of nodes in the cluster.
	Nodes() int
	// Rack returns the rack index of a node.
	Rack(n NodeID) int
	// Now returns elapsed time since the environment started.
	Now() time.Duration

	// Go spawns a concurrent activity; Daemon spawns one that does not
	// keep a simulation alive: a daemon still blocked when the rest is
	// done is ended there, its deferred calls run.
	Go(fn func())
	Daemon(fn func())
	NewWaitGroup() WaitGroup
	NewSignal() Signal
	Sleep(d time.Duration)

	// RTT charges one request/response round trip between two nodes
	// (control message, no payload).
	RTT(from, to NodeID)

	// Scatter charges one logical transfer of size bytes fanning out
	// evenly from a node to many destinations.
	Scatter(from NodeID, dests []NodeID, size int64)
	// Gather charges one logical transfer of size bytes converging
	// evenly from many sources into a node. diskFraction in [0,1] is
	// the fraction of the payload that must come off source disks
	// (cache misses); it loads each source's disk proportionally.
	Gather(to NodeID, srcs []NodeID, size int64, diskFraction float64)
	// Pipeline charges a store-and-forward chain transfer (HDFS-style
	// replica pipeline); if disks is true every chain member also
	// writes the payload to its local disk at full weight.
	Pipeline(from NodeID, chain []NodeID, size int64, disks bool)
	// DiskRead / DiskWrite charge local disk I/O on a node.
	DiskRead(node NodeID, size int64)
	DiskWrite(node NodeID, size int64)
}

// Farthest picks the most distant of nodes as seen from from — the
// first one on another rack, else the first one that is not from — so
// a single RTT charge covers a parallel fan-out. With no other node it
// returns from.
func Farthest(env Env, from NodeID, nodes []NodeID) NodeID {
	best := from
	for _, n := range nodes {
		if n == from {
			continue
		}
		if best == from || (env.Rack(n) != env.Rack(from) && env.Rack(best) == env.Rack(from)) {
			best = n
		}
	}
	return best
}

// ---------------------------------------------------------------------
// Simulation-backed environment.

// Sim is an Env backed by the discrete-event simulator.
type Sim struct {
	net *simnet.Network
	eng *sim.Engine
}

// NewSim wraps a simulated network as an Env.
func NewSim(net *simnet.Network) *Sim {
	return &Sim{net: net, eng: net.Engine()}
}

func (s *Sim) Nodes() int              { return s.net.NumNodes() }
func (s *Sim) Rack(n NodeID) int       { return s.net.Rack(n) }
func (s *Sim) Now() time.Duration      { return s.eng.Now() }
func (s *Sim) Go(fn func())            { s.eng.Go(fn) }
func (s *Sim) Daemon(fn func())        { s.eng.GoDaemon(fn) }
func (s *Sim) NewWaitGroup() WaitGroup { return s.eng.NewWaitGroup() }
func (s *Sim) NewSignal() Signal       { return simSignal{s.eng.NewSignal()} }
func (s *Sim) Sleep(d time.Duration)   { s.eng.Sleep(d) }
func (s *Sim) RTT(from, to NodeID) {
	s.net.Delay(from, to)
	s.net.Delay(to, from)
}

func (s *Sim) Scatter(from NodeID, dests []NodeID, size int64) {
	s.net.Transfer(s.net.PathScatter(from, dests), size)
}

func (s *Sim) Gather(to NodeID, srcs []NodeID, size int64, diskFraction float64) {
	p := s.net.PathGather(to, srcs)
	if diskFraction > 0 && len(srcs) > 0 {
		w := diskFraction / float64(len(srcs))
		for _, src := range srcs {
			p.WithDisk(src, w)
		}
	}
	s.net.Transfer(p, size)
}

func (s *Sim) Pipeline(from NodeID, chain []NodeID, size int64, disks bool) {
	p := s.net.PathPipeline(from, chain)
	if disks {
		for _, n := range chain {
			p.WithDisk(n, 1)
		}
	}
	s.net.Transfer(p, size)
}

func (s *Sim) DiskRead(node NodeID, size int64)  { s.net.DiskRead(node, size) }
func (s *Sim) DiskWrite(node NodeID, size int64) { s.net.DiskWrite(node, size) }

// simSignal is a sim.Signal as a Signal.
type simSignal struct{ *sim.Signal }

func (s simSignal) WaitOr(o Signal) bool { return s.Signal.WaitOr(o.(simSignal).Signal) }

// ---------------------------------------------------------------------
// Local (instantaneous) environment.

// Local is an Env with no modelled time: every charge returns
// immediately and activities are plain goroutines. It serves unit tests,
// the examples, and the real TCP deployment, where actual byte movement
// provides the cost.
type Local struct {
	nodes   int
	perRack int
	start   time.Time
}

// NewLocal returns a Local env presenting n nodes (racks of rackSize;
// rackSize <= 0 means one rack).
func NewLocal(n, rackSize int) *Local {
	if rackSize <= 0 {
		rackSize = n
	}
	return &Local{nodes: n, perRack: rackSize, start: time.Now()}
}

func (l *Local) Nodes() int         { return l.nodes }
func (l *Local) Rack(n NodeID) int  { return int(n) / l.perRack }
func (l *Local) Now() time.Duration { return time.Since(l.start) }
func (l *Local) Go(fn func())       { go fn() }
func (l *Local) Daemon(fn func())   { go fn() }

func (l *Local) NewWaitGroup() WaitGroup { return &localWG{} }

// NewSignal returns a channel-backed one-shot signal.
func (l *Local) NewSignal() Signal { return &localSignal{ch: make(chan struct{})} }

// Sleep in the Local env sleeps real time: explicit sleeps are daemon
// pacing (heartbeats, placement sweeps, deadlines), which must not
// busy-spin.
func (l *Local) Sleep(d time.Duration)                       { time.Sleep(d) }
func (l *Local) RTT(from, to NodeID)                         {}
func (l *Local) Scatter(from NodeID, d []NodeID, size int64) {}
func (l *Local) Gather(NodeID, []NodeID, int64, float64)     {}
func (l *Local) Pipeline(NodeID, []NodeID, int64, bool)      {}
func (l *Local) DiskRead(node NodeID, size int64)            {}
func (l *Local) DiskWrite(node NodeID, size int64)           {}

type localWG struct{ wg sync.WaitGroup }

func (w *localWG) Wait() { w.wg.Wait() }
func (w *localWG) Go(fn func()) {
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		fn()
	}()
}

type localSignal struct {
	once sync.Once
	ch   chan struct{}
}

func (s *localSignal) Wait() { <-s.ch }

func (s *localSignal) Fire() { s.once.Do(func() { close(s.ch) }) }

func (s *localSignal) WaitOr(o Signal) bool {
	select {
	case <-s.ch:
	case <-o.(*localSignal).ch:
	}
	select {
	case <-s.ch:
		return true
	default:
		return false
	}
}
