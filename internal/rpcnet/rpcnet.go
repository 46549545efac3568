// Package rpcnet serves a BSFS deployment over TCP: remote clients
// (cmd/blobctl) drive the file system cmd/bsfsd hosts, through the same
// service objects the simulator runs. There is one protocol, on the one
// connection a Client dials: one exchange at a time, each a request
// answered by a status frame. A frame is a 32-byte little-endian
// header, then path, tenant and payload bytes.
//
//	 0 op      u8   the table below
//	 1 flags   u8   write: 1 = append to an existing file
//	 2 code    u16  status: 0 ok, or the error (below)
//	 4 pathLen u16  request: path bytes, <= 4096; status: message bytes
//	 6 tenLen  u16  request: admission tenant bytes, <= 256
//	 8 version u64  read: snapshot, 0 = latest; join, leave, drain: node
//	16 offset  i64  read: first byte; status: retry-after in ns
//	24 length  i64  payload bytes that follow; but read: most bytes
//	                wanted, and its first status: bytes to come as data
//
//	 1 write      flags; payload: the file        Put, Append
//	 2 read       version, offset, length         Get
//	 3 data       reply; payload: file bytes
//	 4 status     reply; code, message, offset; payload: the value at right
//	 5 stat                                       fsapi.FileInfo
//	 6 list                                       []fsapi.FileInfo
//	 7 mkdir, 8 delete
//	 9 rename     payload: the new path
//	10 versions                                   []uint64
//	11 shards     path may be empty               ShardsReply
//	12 providers, 13 tenants: no path             ProvidersReply, TenantsReply
//	14 join, 15 leave, 16 drain: no path;         NodeReply
//	              version = node (join: 0 = pick one)
//
// A write is answered by one status; a read by a status, data frames
// and a closing status (or one error status). An upload is read from
// the socket straight into one fsapi.Writer's pending block, so a
// block commits while the next arrives, and that writer is closed when
// the stream ends or tears: no server state outlives its connection. A
// refused request has its payload skipped and leaves the connection
// usable; a malformed header is answered and hung up on. A read reply
// comes from one OpenAt: Get returns exactly one published snapshot
// whatever is appended meanwhile, fetches each page once, and reports a
// mid-stream read error in the closing status, not as a short file. Ops
// 5-16 are the control calls: no file bytes, a request payload of at
// most one path, the reply value as JSON; the server decodes no
// structured body.
//
// Admission charges the tenant one token per write or read, at its
// start, before any writer or reader opens, and holds it until the
// reply ends. A control call carries the tenant and is not charged: an
// operator must get through to a server that is shedding load.
//
// Codes: 1 any other error, message only; 2-7 fsapi.ErrNotFound,
// ErrExists, ErrIsDir, ErrNotDir, ErrBadPath, ErrNotSupported; 8-11
// core.ErrNoSuchVersion, ErrAborted, ErrAllReplicasDown, ErrCanceled;
// 12 core.ErrOverloaded, rebuilt as *traffic.OverloadedError with its
// retry-after; 13 fsapi.ErrNotEmpty. The client's error keeps the
// server's message and matches the sentinel under errors.Is.
package rpcnet

import (
	"bufio"
	"encoding/json"
	"io"
	"math"
	"net"
	"sync"

	"repro/internal/bsfs"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fsapi"
	"repro/internal/traffic"
)

// Service is the server: wire.go's exchanges over one BSFS client.
type Service struct{ fs *bsfs.FS }

// NewService wraps a BSFS client (typically node 0 of a Local env).
func NewService(fs *bsfs.FS) *Service { return &Service{fs: fs} }

// admit charges one write or read to the deployment's per-tenant
// admission limiter, failing fast with the typed overload error. Control
// calls, untenanted requests and servers without admission pass through.
func (s *Service) admit(op uint8, tenant string) (func(), error) {
	if lim := s.fs.Deployment().Admission; lim != nil && op < opStat {
		return lim.Admit(tenant)
	}
	return func() {}, nil
}

// control serves one control call and encodes the value its status
// frame carries, if any. The payload, Rename's new path, is read whole
// first: it is short, and no op may act on part of a path.
func (s *Service) control(h header, path string, body io.Reader) (_ []byte, err error) {
	dst := make([]byte, h.Length)
	if _, err = io.ReadFull(body, dst); err != nil {
		return nil, err // exchange finds the payload short and hangs up
	}
	var v any
	switch h.Op {
	case opStat:
		v, err = s.fs.Stat(path)
	case opList:
		v, err = s.fs.List(path)
	case opMkdir:
		err = s.fs.Mkdir(path)
	case opDelete:
		err = s.fs.Delete(path)
	case opRename:
		err = s.fs.Rename(path, string(dst))
	case opVersions:
		v, err = s.fs.Versions(path)
	case opShards:
		v, err = s.shards(path)
	case opProviders:
		v = s.providers()
	case opTenants:
		v = s.tenants()
	default: // opJoin, opLeave, opDrain: a valid header has no other op
		v, err = s.member(h.Op, cluster.NodeID(h.Version))
	}
	if err != nil || v == nil {
		return nil, err
	}
	return json.Marshal(v)
}

// ShardsReply describes the server's version-manager tier and, when a
// path was given, the file's owning shard.
type ShardsReply struct {
	// Count is the shard count; Nodes lists the shard hosting nodes in
	// shard-index order.
	Count int
	Nodes []uint64
	// Blob and Shard are set when a path was supplied: the blob id
	// behind the file and its owning shard index (Blob mod Count).
	Blob  uint64
	Shard int
}

// shards exposes the version-manager tier topology — the shard-aware
// face of the service: remote tooling can see how blobs partition
// without reaching into the deployment.
func (s *Service) shards(path string) (reply ShardsReply, err error) {
	nodes := s.fs.VMShardNodes()
	reply.Count = len(nodes)
	for _, n := range nodes {
		reply.Nodes = append(reply.Nodes, uint64(n))
	}
	if path != "" {
		var blob core.BlobID
		blob, reply.Shard, err = s.fs.ShardOf(path)
		reply.Blob = uint64(blob)
	}
	return reply, err
}

// ProviderInfo describes one member of the provider fleet.
type ProviderInfo struct {
	Node   uint64
	Health string // "up", "down", or "draining"
	// Entries and Resident describe the RAM page cache; Dirty is the
	// bytes not yet persisted to the durable log; Stored is the
	// cumulative bytes ever ingested.
	Entries  int
	Resident int64
	Dirty    int64
	Stored   int64
	// Backend is the persistent tier's spec ("" for a pure RAM store);
	// Recovered is the number of pages replayed from it at startup.
	Backend   string
	Recovered int
}

// ProvidersReply lists the provider fleet as of a membership epoch,
// with the outcome of the most recent background placement sweep.
type ProvidersReply struct {
	Epoch     uint64
	Providers []ProviderInfo
	// LastSweep and SweepError report the last completed sweep (zero
	// and "" before the first one, or with the sweep off).
	LastSweep  core.RepairStats
	SweepError string
}

// providers reports the provider membership with per-node health and
// store occupancy, and the last placement sweep — the operator's view
// of the placement subsystem.
func (s *Service) providers() (reply ProvidersReply) {
	dep := s.fs.Deployment()
	reply.Epoch = dep.Placement.Epoch()
	var err error
	if reply.LastSweep, err = dep.Rebalance.LastSweep(); err != nil {
		reply.SweepError = err.Error()
	}
	for _, m := range dep.Placement.Members() {
		info := ProviderInfo{Node: uint64(m.Node), Health: m.Health.String()}
		if p := dep.Provider(m.Node); p != nil {
			st := p.Store().Stats()
			info.Entries = st.Entries
			info.Resident = st.MemBytes
			info.Dirty = p.Store().DirtyBytes()
			info.Stored = p.BytesStored()
			info.Backend = p.Store().BackendSpec()
			info.Recovered = st.Recovered
		}
		reply.Providers = append(reply.Providers, info)
	}
	return reply
}

// TenantsReply describes the server's admission configuration and
// every tenant the limiter has seen.
type TenantsReply struct {
	// Enabled is false when the server runs without admission
	// (-tenant-rate 0); Rate/Burst and Tenants are then empty.
	Enabled bool
	Rate    float64 // admitted ops/sec per tenant
	Burst   float64 // bucket depth
	Tenants []traffic.TenantStats
}

// tenants reports per-tenant admitted/rejected/inflight counters from
// the admission layer — the operator's view of who is over rate.
func (s *Service) tenants() TenantsReply {
	if lim := s.fs.Deployment().Admission; lim != nil {
		return TenantsReply{Enabled: true, Rate: lim.Rate(), Burst: lim.Burst(), Tenants: lim.Stats()}
	}
	return TenantsReply{}
}

// NodeReply reports the affected node and the membership epoch after
// the operation.
type NodeReply struct {
	Node  uint64
	Epoch uint64
}

// member changes the provider fleet. Join starts a new provider (node 0
// auto-allocates the next unused id) and adds it to the placement
// membership; the background placement loop migrates its ring share
// onto it. Drain marks a provider draining: it keeps serving reads,
// receives no new placements, and the loop migrates its pages away.
// Leave removes a provider and stops it; the loop restores the replicas
// it held, so drain first for an exit that never dips below the
// replication target.
func (s *Service) member(op uint8, node cluster.NodeID) (_ NodeReply, err error) {
	dep := s.fs.Deployment()
	switch op {
	case opJoin:
		if node == 0 {
			// Auto-allocate past every node the deployment knows about.
			for _, n := range append(dep.Placement.Fleet(), dep.VM.Nodes()...) {
				node = max(node, n+1)
			}
		}
		_, err = dep.AddProvider(node)
	case opLeave:
		err = dep.RemoveProvider(node)
	case opDrain:
		err = dep.DrainProvider(node)
	}
	return NodeReply{Node: uint64(node), Epoch: dep.Placement.Epoch()}, err
}

// Serve accepts connections on l until it is closed.
func Serve(l net.Listener, svc *Service) error {
	// Connection handlers spawn through the service's Env so the sim
	// scheduler (and leak hygiene under Local) can see them; they are
	// daemons because an open client connection must not keep a
	// simulation alive.
	env := svc.fs.Deployment().Env
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		env.Daemon(func() {
			// Until the peer hangs up, the stream tears or a frame is bad.
			defer conn.Close()
			br := bufio.NewReader(conn)
			for svc.exchange(conn, br) == nil {
			}
		})
	}
}

// Client is one remote user of a server. Tenant, when set, attributes
// every subsequent data operation (Put, Append, Get) to that
// admission tenant; over-rate calls fail with an error matching
// core.ErrOverloaded. The calls of one Client run one at a time, in the
// order they take its connection.
type Client struct {
	Tenant string

	mu   sync.Mutex // serialises exchanges
	conn net.Conn
	br   *bufio.Reader
}

// Dial connects to a bsfsd server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn, br: bufio.NewReader(conn)}, nil
}

// Close releases the client's connection.
func (c *Client) Close() error { return c.conn.Close() }

// do is call for the requests whose status frame is the whole answer.
func (c *Client) do(h header, path string, payload []byte) error {
	_, err := call[struct{}](c, h, path, payload)
	return err
}

// Put streams data into a new file.
func (c *Client) Put(path string, data []byte) error { return c.do(header{Op: opWrite}, path, data) }

// Append streams data onto an existing file.
func (c *Client) Append(path string, data []byte) error {
	return c.do(header{Op: opWrite, Flags: flagAppend}, path, data)
}

// Get reads a whole file (or snapshot version; 0 = latest).
func (c *Client) Get(path string, version uint64) ([]byte, error) {
	return c.readRange(path, version, 0, math.MaxInt64)
}

// Stat describes a path.
func (c *Client) Stat(path string) (fsapi.FileInfo, error) {
	return call[fsapi.FileInfo](c, header{Op: opStat}, path, nil)
}

// List enumerates a directory.
func (c *Client) List(path string) ([]fsapi.FileInfo, error) {
	return call[[]fsapi.FileInfo](c, header{Op: opList}, path, nil)
}

// Mkdir creates a directory.
func (c *Client) Mkdir(path string) error { return c.do(header{Op: opMkdir}, path, nil) }

// Delete removes a path.
func (c *Client) Delete(path string) error { return c.do(header{Op: opDelete}, path, nil) }

// Rename moves a path.
func (c *Client) Rename(oldPath, newPath string) error {
	return c.do(header{Op: opRename}, oldPath, []byte(newPath))
}

// Versions lists a file's snapshots.
func (c *Client) Versions(path string) ([]uint64, error) {
	return call[[]uint64](c, header{Op: opVersions}, path, nil)
}

// Shards describes the server's version-manager tier; a non-empty path
// additionally resolves that file's blob id and owning shard.
func (c *Client) Shards(path string) (ShardsReply, error) {
	return call[ShardsReply](c, header{Op: opShards}, path, nil)
}

// Providers lists the provider fleet with health and store occupancy.
func (c *Client) Providers() (ProvidersReply, error) {
	return call[ProvidersReply](c, header{Op: opProviders}, "", nil)
}

// Tenants lists per-tenant admission counters.
func (c *Client) Tenants() (TenantsReply, error) {
	return call[TenantsReply](c, header{Op: opTenants}, "", nil)
}

// Join adds a provider on node (0 auto-allocates), returning the node
// chosen and the new membership epoch.
func (c *Client) Join(node uint64) (NodeReply, error) {
	return call[NodeReply](c, header{Op: opJoin, Version: node}, "", nil)
}

// Leave removes a provider from the fleet.
func (c *Client) Leave(node uint64) (NodeReply, error) {
	return call[NodeReply](c, header{Op: opLeave, Version: node}, "", nil)
}

// Drain marks a provider draining so its pages migrate away.
func (c *Client) Drain(node uint64) (NodeReply, error) {
	return call[NodeReply](c, header{Op: opDrain, Version: node}, "", nil)
}
