// Package simnet models a cluster's data fabric for discrete-event
// simulation: full-duplex node NICs, rack uplinks, a core switch, and
// per-node disks. Transfers are flows subject to weighted max-min fair
// bandwidth sharing across every resource they traverse, so contention
// and hotspots emerge from placement decisions rather than from tuned
// curves.
//
// A flow occupies each resource with a weight in (0,1]: a stripe write
// from one client to R providers loads the client uplink with weight 1
// and each provider downlink with weight 1/R. A pipelined chunk write
// (HDFS style) traverses the network links and the destination disks
// with weight 1, making its rate min(network, disk) — exactly the
// behaviour of a store-and-forward replica pipeline.
//
// Rates are solved once per virtual instant that changes the flow set,
// over the flow–link components its arrivals and departures touch, with
// flows in arrival order; max-min sharing on a component depends on no
// other, so every other flow keeps its rate. Each bottleneck comes off
// a binary heap of the round's links, and freezing it walks only the
// flows that cross it. The sums a solve takes depend on nothing but the
// order in which processes call Transfer.
//
// simnet is the repository's stand-in for the paper's Grid'5000 testbed;
// see Grid5000 for the topology used by the experiments.
package simnet

import (
	"slices"
	"sync"
	"time"

	"repro/internal/sim"
)

// NodeID identifies a cluster node, in [0, Config.Nodes).
type NodeID int

// Byte-size units.
const (
	KB int64 = 1 << 10
	MB int64 = 1 << 20
	GB int64 = 1 << 30
)

// Config describes a cluster fabric; Grid5000 builds the paper's.
type Config struct {
	nodes        int
	nodesPerRack int

	nicBandwidth  int64 // bytes/s, per direction, per node
	rackUplink    int64 // bytes/s, per direction, per rack; 0 = unlimited
	coreBandwidth int64 // bytes/s, aggregate inter-rack; 0 = unlimited
	diskBandwidth int64 // bytes/s, per node, shared by reads and writes

	latencyIntraRack time.Duration
	latencyInterRack time.Duration

	// smallTransferCutoff routes transfers at or below this size around
	// the max-min solver: they are charged at the path's uncontended
	// bottleneck rate. Metadata and control payloads dominate event
	// counts but not bandwidth; this keeps large simulations tractable.
	// 0 means the 256 KiB default; negative disables the fast path.
	smallTransferCutoff int64
}

// Grid5000 returns a topology modelled on the paper's testbed: n nodes
// in racks of 30 with 1 Gb/s NICs and 2010-era local disks at 60 MB/s,
// behind a close-to-non-blocking aggregation fabric (the Rennes site's
// gigabit cluster used large chassis switches; per-node NICs, not the
// backbone, were the published bottleneck).
func Grid5000(n int) Config {
	return Config{
		nodes:            n,
		nodesPerRack:     30,
		nicBandwidth:     125 * MB,
		rackUplink:       2500 * MB,
		coreBandwidth:    20000 * MB,
		diskBandwidth:    60 * MB,
		latencyIntraRack: 100 * time.Microsecond,
		latencyInterRack: 500 * time.Microsecond,
	}
}

// link is a shared resource with finite capacity.
type link struct {
	capacity float64 // bytes/s; 0 means the link is unconstrained
	sumW     float64 // Σ weight of unfrozen flows during recompute
	capRem   float64
	epoch    uint64  // recompute round the working state belongs to
	reached  uint64  // the last solve whose walk reached the link
	flows    []*flow // active flows crossing the link, in arrival order
	moved    float64
	pathAt   int // index in the path that last added the link

	// The link's entry in recompute's heap.
	share float64 // heap key: capRem/sumW when last computed
	stale bool    // share may be below capRem/sumW
	pos   int     // first-visit position in the round, the tie-break
	at    int     // index in the heap; -1 once popped
}

// before orders recompute's heap: lower share first, then earlier first
// visit, the order a scan keeping the first strict minimum picks.
func (l *link) before(o *link) bool {
	return l.share < o.share || l.share == o.share && l.pos < o.pos
}

func siftUp(h []*link, i int) {
	l := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !l.before(h[p]) {
			break
		}
		h[i] = h[p]
		h[i].at = i
		i = p
	}
	h[i] = l
	l.at = i
}

func siftDown(h []*link, i int) {
	l := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(l) {
			break
		}
		h[i] = h[c]
		h[i].at = i
		i = c
	}
	h[i] = l
	l.at = i
}

// popHeap removes the heap's top link.
func popHeap(h []*link) []*link {
	h[0].at = -1
	last := h[len(h)-1]
	h = h[:len(h)-1]
	if len(h) > 0 {
		h[0] = last
		siftDown(h, 0)
	}
	return h
}

// Network is the simulated fabric. All methods that move data must be
// called from simulation processes (goroutines spawned via sim.Engine).
type Network struct {
	eng *sim.Engine
	cfg Config

	mu     sync.Mutex
	up     []*link // node uplinks
	down   []*link // node downlinks
	disk   []*link
	rackUp []*link
	rackDn []*link
	core   *link

	flows      []*flow // active flows, in arrival order
	touched    []*flow // flows that arrived or finished since the last solve
	heap       []*link // recompute's scratch: the links of the flows it fills
	lastUpdate time.Duration
	timer      *sim.Timer
	solving    bool   // a solve is scheduled for the current instant
	epoch      uint64 // counts solves

	// n.solve and n.onCompletion, bound once rather than on every arm.
	solveFn, completeFn func()

	// Paths are built by simulation processes, which run one at a time.
	building *Path   // the path that last added a link
	spare    []*Path // paths that no transfer holds, for reuse while busy
}

type flow struct {
	*Path             // the flow's links and weights; released once it has finished
	remaining float64 // bytes
	rate      float64 // bytes/s, set by recompute
	done      *sim.Signal
}

// New builds a network on the engine. Panics on invalid configuration.
func New(eng *sim.Engine, cfg Config) *Network {
	if cfg.nodes <= 0 {
		panic("simnet: config needs at least one node")
	}
	if cfg.smallTransferCutoff == 0 {
		cfg.smallTransferCutoff = 256 << 10
	}
	if cfg.nodesPerRack <= 0 {
		cfg.nodesPerRack = cfg.nodes
	}
	n := &Network{eng: eng, cfg: cfg}
	n.solveFn, n.completeFn = n.solve, n.onCompletion
	racks := (cfg.nodes + cfg.nodesPerRack - 1) / cfg.nodesPerRack
	for i := 0; i < cfg.nodes; i++ {
		n.up = append(n.up, &link{capacity: float64(cfg.nicBandwidth)})
		n.down = append(n.down, &link{capacity: float64(cfg.nicBandwidth)})
		n.disk = append(n.disk, &link{capacity: float64(cfg.diskBandwidth)})
	}
	for r := 0; r < racks; r++ {
		n.rackUp = append(n.rackUp, &link{capacity: float64(cfg.rackUplink)})
		n.rackDn = append(n.rackDn, &link{capacity: float64(cfg.rackUplink)})
	}
	n.core = &link{capacity: float64(cfg.coreBandwidth)}
	return n
}

// Engine returns the simulation engine the network runs on.
func (n *Network) Engine() *sim.Engine { return n.eng }

// NumNodes returns the number of nodes.
func (n *Network) NumNodes() int { return n.cfg.nodes }

// Rack returns the rack index of a node.
func (n *Network) Rack(id NodeID) int { return int(id) / n.cfg.nodesPerRack }

// latency returns the one-way message latency between two nodes.
func (n *Network) latency(from, to NodeID) time.Duration {
	if from == to {
		return 0
	}
	if n.Rack(from) == n.Rack(to) {
		return n.cfg.latencyIntraRack
	}
	return n.cfg.latencyInterRack
}

// Delay sleeps one message latency between the nodes.
func (n *Network) Delay(from, to NodeID) {
	if d := n.latency(from, to); d > 0 {
		n.eng.Sleep(d)
	}
}

// A Path is a set of weighted resources a transfer occupies. Build one
// with the Path* constructors, optionally extend it, then run it with
// Transfer, which consumes it.
type Path struct {
	n       *Network
	links   []*link
	weights []float64
}

// newPath returns an empty path, reusing a spare one.
func (n *Network) newPath() *Path {
	k := len(n.spare) - 1
	if k < 0 {
		return &Path{n: n}
	}
	p := n.spare[k]
	n.spare = n.spare[:k]
	return p
}

// add loads l with weight w, merging into the link's entry if the path
// has one. Each link records its index in the path that last added it;
// a path that resumes after another path's adds re-records its own.
func (p *Path) add(l *link, w float64) {
	if l == nil || w <= 0 || l.capacity <= 0 {
		return // unconstrained or unused
	}
	if p.n.building != p {
		for i, m := range p.links {
			m.pathAt = i
		}
		p.n.building = p
	}
	if i := l.pathAt; i < len(p.links) && p.links[i] == l {
		p.weights[i] += w
		return
	}
	l.pathAt = len(p.links)
	p.links = append(p.links, l)
	p.weights = append(p.weights, w)
}

// addRoute adds the network segment from one node to another with the
// given weight (NICs excluded; callers add endpoints themselves).
func (p *Path) addFabric(from, to NodeID, w float64) {
	rf, rt := p.n.Rack(from), p.n.Rack(to)
	if from == to || rf == rt {
		return
	}
	p.add(p.n.rackUp[rf], w)
	p.add(p.n.core, w)
	p.add(p.n.rackDn[rt], w)
}

// PathUnicast models a transfer from one node to another. from == to is
// a loopback and occupies no network resources.
func (n *Network) PathUnicast(from, to NodeID) *Path {
	p := n.newPath()
	if from == to {
		return p
	}
	p.add(n.up[from], 1)
	p.add(n.down[to], 1)
	p.addFabric(from, to, 1)
	return p
}

// PathScatter models one logical transfer from a source fanning out
// evenly to many destinations (a striped write). The source uplink is
// loaded with weight 1; each destination downlink with 1/len(dests).
func (n *Network) PathScatter(from NodeID, dests []NodeID) *Path {
	p := n.newPath()
	if len(dests) == 0 {
		return p
	}
	w := 1 / float64(len(dests))
	local := 0
	for _, d := range dests {
		if d == from {
			local++
			continue
		}
		p.add(n.down[d], w)
		p.addFabric(from, d, w)
	}
	if local < len(dests) {
		p.add(n.up[from], float64(len(dests)-local)*w)
	}
	return p
}

// PathGather models one logical transfer into a destination drawing
// evenly from many sources (a striped read). Mirror of PathScatter.
func (n *Network) PathGather(to NodeID, srcs []NodeID) *Path {
	p := n.newPath()
	if len(srcs) == 0 {
		return p
	}
	w := 1 / float64(len(srcs))
	local := 0
	for _, s := range srcs {
		if s == to {
			local++
			continue
		}
		p.add(n.up[s], w)
		p.addFabric(s, to, w)
	}
	if local < len(srcs) {
		p.add(n.down[to], float64(len(srcs)-local)*w)
	}
	return p
}

// PathPipeline models a store-and-forward replica pipeline
// src -> chain[0] -> chain[1] -> ...; every hop carries the full payload,
// so each traversed link gets weight 1 and the flow's rate is the minimum
// across the whole chain.
func (n *Network) PathPipeline(src NodeID, chain []NodeID) *Path {
	p := n.newPath()
	prev := src
	for _, next := range chain {
		if next != prev {
			p.add(n.up[prev], 1)
			p.add(n.down[next], 1)
			p.addFabric(prev, next, 1)
		}
		prev = next
	}
	return p
}

// pathDisk models a local disk access on a node.
func (n *Network) pathDisk(node NodeID) *Path {
	p := n.newPath()
	p.add(n.disk[node], 1)
	return p
}

// WithDisk adds a disk resource to the path with the given weight and
// returns the path (for chaining). Weight is the fraction of the payload
// that touches that disk.
func (p *Path) WithDisk(node NodeID, w float64) *Path {
	p.add(p.n.disk[node], w)
	return p
}

// Transfer moves size bytes along the path, blocking the calling process
// in virtual time until the flow completes. A path with no constrained
// resources completes instantly.
func (n *Network) Transfer(p *Path, size int64) {
	if size <= 0 || len(p.links) == 0 {
		n.release(p)
		return
	}
	if size <= n.cfg.smallTransferCutoff {
		n.transferSmall(p, size)
		return
	}
	f := &flow{
		Path:      p,
		remaining: float64(size),
		done:      n.eng.NewSignal(),
	}
	n.mu.Lock()
	n.advanceLocked()
	n.flows = append(n.flows, f)
	for _, l := range f.links {
		l.flows = append(l.flows, f)
	}
	n.touched = append(n.touched, f)
	if !n.solving {
		// The first arrival at an instant schedules the solve later ones
		// join, and cancels the completion timer the solve re-arms.
		n.solving = true
		n.timer.Cancel()
		n.timer = nil
		n.eng.After(0, n.solveFn)
	}
	n.mu.Unlock()
	f.done.Wait()
}

// solve is the one solve an instant's arrivals share (scheduler context).
func (n *Network) solve() {
	n.mu.Lock()
	n.solving = false
	n.recomputeLocked()
	n.mu.Unlock()
}

// transferSmall charges a small payload at the path's uncontended
// bottleneck rate, bypassing the fair-share solver.
func (n *Network) transferSmall(p *Path, size int64) {
	minRate := 0.0
	n.mu.Lock()
	for i, l := range p.links {
		r := l.capacity / p.weights[i]
		if minRate == 0 || r < minRate {
			minRate = r
		}
		l.moved += float64(size) * p.weights[i]
	}
	n.mu.Unlock()
	n.release(p)
	if minRate <= 0 {
		return
	}
	n.eng.Sleep(time.Duration(float64(size)/minRate*1e9) + 1)
}

// release keeps a path that no transfer holds any more for newPath.
func (n *Network) release(p *Path) {
	p.links, p.weights = p.links[:0], p.weights[:0]
	n.spare = append(n.spare, p)
}

// DiskRead charges a local disk read of size bytes on the node.
func (n *Network) DiskRead(node NodeID, size int64) { n.Transfer(n.pathDisk(node), size) }

// DiskWrite charges a local disk write of size bytes on the node.
func (n *Network) DiskWrite(node NodeID, size int64) { n.Transfer(n.pathDisk(node), size) }

// advanceLocked progresses every flow to the current virtual time.
func (n *Network) advanceLocked() {
	now := n.eng.Now()
	dt := (now - n.lastUpdate).Seconds()
	n.lastUpdate = now
	if dt <= 0 {
		return
	}
	for _, f := range n.flows {
		if f.rate > 0 {
			moved := f.rate * dt
			if moved > f.remaining {
				moved = f.remaining
			}
			f.remaining -= moved
			for i, l := range f.links {
				l.moved += moved * f.weights[i]
			}
		}
	}
}

// recomputeLocked runs weighted max-min progressive filling over the
// flow–link components that the instant's arriving and finishing flows
// touch, then schedules the next completion event. It runs once per
// instant: from solve for the arrivals, from onCompletion for the
// departures. A component is closed: its links list only its flows, and
// its flows cross only its links. Visited in arrival order, its links
// keep their relative first-visit order, so a round over a union of
// components runs per component the bottlenecks and float operations of
// a round over all flows, and the flows left out keep the rates it would
// give them. Freezing a bottleneck walks only its own flows, in order.
//
// The round's links sit in a min-heap on (share, first-visit position),
// so the top is the link a scan for the first strict minimum share
// would pick. Keys are lazy: a stored share never exceeds the link's
// current capRem/sumW, and equals it unless the link is marked stale. In
// exact arithmetic freezing a flow of weight w at the bottleneck's share
// b raises the share s of each other link it crosses by
// w·(s−b)/(sumW−w) ≥ 0, so those links are marked stale and re-keyed
// only when they reach the top. Rounding, or the clamp of capRem at 0, can lower a share, and a
// lowered key moves up at once; without that the heap could pick a
// different bottleneck from the scan. The bottleneck, the freeze order
// and every float operation are the scan's, so the rates are too.
func (n *Network) recomputeLocked() {
	// Walk the touched components from the touched flows, marking each
	// flow reached unfrozen. Links go before flows, so the walk ends once
	// every flow is reached, within a few links of a fabric-wide component.
	n.epoch++
	unfrozen := 0
	links, flows := n.heap[:0], n.touched
	for unfrozen < len(n.flows) && len(links)+len(flows) > 0 {
		if k := len(links) - 1; k >= 0 {
			for _, f := range links[k].flows {
				if f.rate >= 0 {
					f.rate = -1 // unfrozen
					unfrozen++
					flows = append(flows, f)
				}
			}
			links = links[:k]
		} else {
			k := len(flows) - 1
			for _, l := range flows[k].links {
				if l.reached != n.epoch {
					l.reached = n.epoch
					links = append(links, l)
				}
			}
			flows = flows[:k]
		}
	}
	n.touched = flows[:0]
	if unfrozen == 0 {
		n.scheduleNextLocked() // only departures, and their links are idle
		return
	}
	// Gather the unfrozen flows' links and reset their working state,
	// using an epoch marker so state left by earlier rounds is ignored.
	h := links[:0]
	for _, f := range n.flows {
		if f.rate >= 0 {
			continue // an untouched component
		}
		for i, l := range f.links {
			if l.epoch != n.epoch {
				l.epoch = n.epoch
				l.sumW = 0
				l.capRem = l.capacity
				l.stale, l.pos = false, len(h)
				h = append(h, l)
			}
			l.sumW += f.weights[i]
		}
	}
	for i := len(h) - 1; i >= 0; i-- { // heapify, keying each link first
		h[i].share = h[i].capRem / h[i].sumW
		siftDown(h, i)
	}
	for unfrozen > 0 {
		if len(h) == 0 {
			// Remaining flows traverse only unconstrained links.
			for _, f := range n.flows {
				if f.rate < 0 {
					f.rate = 1e18
					unfrozen--
				}
			}
			break
		}
		bottleneck := h[0]
		if bottleneck.stale {
			if bottleneck.sumW <= 0 {
				h = popHeap(h) // every flow crossing it is frozen
			} else {
				bottleneck.share, bottleneck.stale = bottleneck.capRem/bottleneck.sumW, false
				siftDown(h, 0)
			}
			continue
		}
		h = popHeap(h)
		best := bottleneck.share
		// Freeze every unfrozen flow crossing the bottleneck.
		for _, f := range bottleneck.flows {
			if f.rate >= 0 {
				continue
			}
			f.rate = best
			unfrozen--
			for i, l := range f.links {
				l.capRem -= best * f.weights[i]
				l.sumW -= f.weights[i]
				if l.capRem < 0 {
					l.capRem = 0
				}
				if l.at < 0 {
					continue // popped
				}
				if s := l.capRem / l.sumW; l.sumW > 0 && s < l.share {
					l.share, l.stale = s, false
					siftUp(h, l.at)
				} else {
					l.stale = true
				}
			}
		}
		bottleneck.sumW = 0 // fully allocated
	}
	n.heap = h
	n.scheduleNextLocked()
}

// scheduleNextLocked (re)arms the completion timer for the earliest
// finishing flow.
func (n *Network) scheduleNextLocked() {
	n.timer.Cancel()
	n.timer = nil
	var next time.Duration
	found := false
	for _, f := range n.flows {
		if f.rate <= 0 {
			continue
		}
		d := time.Duration(f.remaining/f.rate*1e9) + 1 // ns, round up
		if !found || d < next {
			next, found = d, true
		}
	}
	if found {
		n.timer = n.eng.After(next, n.completeFn)
	}
}

// onCompletion fires finished flows and recomputes the allocation. Runs
// in scheduler context.
func (n *Network) onCompletion() {
	const eps = 1.0 // bytes
	n.mu.Lock()
	n.advanceLocked()
	isFinished := func(f *flow) bool { return f.remaining <= eps }
	var finished []*flow
	for _, f := range n.flows {
		if isFinished(f) {
			finished = append(finished, f)
		}
	}
	n.flows = slices.DeleteFunc(n.flows, isFinished)
	for _, f := range finished {
		for _, l := range f.links {
			l.flows = slices.DeleteFunc(l.flows, isFinished)
		}
	}
	n.touched = append(n.touched, finished...)
	n.recomputeLocked()
	if len(n.flows) == 0 {
		n.spare, n.touched = nil, nil // at rest, hold no path and no finished flow
	} else {
		for _, f := range finished {
			n.release(f.Path)
		}
	}
	n.mu.Unlock()
	for _, f := range finished {
		f.done.Fire()
	}
}

// Stats is a utilization snapshot.
type Stats struct {
	BytesUp   []int64 // per node
	bytesDown []int64
	BytesDisk []int64
	BytesCore int64
}

// Stats returns cumulative per-resource byte counters.
func (n *Network) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.advanceLocked()
	s := Stats{
		BytesUp:   make([]int64, n.cfg.nodes),
		bytesDown: make([]int64, n.cfg.nodes),
		BytesDisk: make([]int64, n.cfg.nodes),
		BytesCore: int64(n.core.moved),
	}
	for i := 0; i < n.cfg.nodes; i++ {
		s.BytesUp[i] = int64(n.up[i].moved)
		s.bytesDown[i] = int64(n.down[i].moved)
		s.BytesDisk[i] = int64(n.disk[i].moved)
	}
	return s
}
