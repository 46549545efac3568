// Package rpcnet serves a BSFS deployment over TCP: remote clients
// (cmd/blobctl) drive the file system cmd/bsfsd hosts, through the same
// service objects the simulator runs. A connection's first byte names
// one of two planes.
//
// 'C' is the control plane: net/rpc with gob for the calls that move no
// file bytes (Stat, List, Mkdir, Delete, Rename, Versions, Shards,
// Providers, Tenants, Join, Leave, Drain), on a connection a Client
// dials at its first such call. Its errors are net/rpc's, message
// strings: errors.Is does not hold across it.
//
// 'D' is the data plane: one exchange at a time of frames, each a
// 32-byte little-endian header, then path, tenant and payload bytes.
//
//	 0 op      u8   requests 1 write, 2 read; replies 3 data, 4 status
//	 1 flags   u8   write: 1 = append to an existing file
//	 2 code    u16  status: 0 ok, or the error (below)
//	 4 pathLen u16  request: path bytes, <= 4096; status: message bytes
//	 6 tenLen  u16  request: admission tenant bytes, <= 256
//	 8 version u64  read: snapshot, 0 = latest
//	16 offset  i64  read: first byte; status: retry-after in ns
//	24 length  i64  write, data: payload bytes that follow; read: most
//	                bytes wanted; a read's first status: bytes to come
//
// Put and Append are write+file -> status; Get and ReadRange are
// read -> status, data..., status (or one error status). An upload
// passes through one pooled MaxChunk buffer into one fsapi.Writer, so a
// block commits while the next arrives, and that writer is closed when
// the stream ends or tears: no server state outlives its connection. A
// refused request has its payload skipped and leaves the connection
// usable; a malformed header is answered and hung up on. A read reply
// comes from one OpenAt: Get returns exactly one published snapshot
// whatever is appended meanwhile, fetches each page once, and reports a
// mid-stream read error in the closing status, not as a short file.
// Admission charges the tenant one token per exchange, at its start,
// before any writer or reader opens, and holds it until the reply ends.
//
// Codes: 1 any other error, message only; 2-7 fsapi.ErrNotFound,
// ErrExists, ErrIsDir, ErrNotDir, ErrBadPath, ErrNotSupported; 8-11
// core.ErrNoSuchVersion, ErrAborted, ErrAllReplicasDown, ErrCanceled;
// 12 core.ErrOverloaded, rebuilt as *traffic.OverloadedError with its
// retry-after. The client's error keeps the server's message and
// matches the sentinel under errors.Is.
package rpcnet

import (
	"bufio"
	"io"
	"math"
	"net"
	"net/rpc"
	"sync"

	"repro/internal/bsfs"
	"repro/internal/cluster"
)

// Service is the server. Its exported methods are the control plane and
// follow net/rpc's (args, reply) convention; wire.go holds the data
// plane.
type Service struct{ fs *bsfs.FS }

// NewService wraps a BSFS client (typically node 0 of a Local env).
func NewService(fs *bsfs.FS) *Service { return &Service{fs: fs} }

// admit charges one data exchange to the deployment's per-tenant
// admission limiter, failing fast with the typed overload error.
// Untenanted requests and servers without admission pass through.
func (s *Service) admit(tenant string) (func(), error) {
	if lim := s.fs.Deployment().Admission; lim != nil {
		return lim.Admit(tenant)
	}
	return func() {}, nil
}

// PathArgs names a path.
type PathArgs struct{ Path string }

// StatReply describes a file.
type StatReply struct {
	Path  string
	Size  int64
	IsDir bool
}

// Stat describes a path.
func (s *Service) Stat(args *PathArgs, reply *StatReply) error {
	fi, err := s.fs.Stat(args.Path)
	if err != nil {
		return err
	}
	*reply = StatReply{Path: fi.Path, Size: fi.Size, IsDir: fi.IsDir}
	return nil
}

// ListReply lists directory entries.
type ListReply struct{ Entries []StatReply }

// List enumerates a directory.
func (s *Service) List(args *PathArgs, reply *ListReply) error {
	infos, err := s.fs.List(args.Path)
	if err != nil {
		return err
	}
	for _, fi := range infos {
		reply.Entries = append(reply.Entries, StatReply{Path: fi.Path, Size: fi.Size, IsDir: fi.IsDir})
	}
	return nil
}

// CloseReply is the empty reply.
type CloseReply struct{}

// Mkdir creates a directory.
func (s *Service) Mkdir(args *PathArgs, reply *CloseReply) error {
	return s.fs.Mkdir(args.Path)
}

// Delete removes a file or empty directory.
func (s *Service) Delete(args *PathArgs, reply *CloseReply) error {
	return s.fs.Delete(args.Path)
}

// RenameArgs moves a path.
type RenameArgs struct{ Old, New string }

// Rename moves a file or directory.
func (s *Service) Rename(args *RenameArgs, reply *CloseReply) error {
	return s.fs.Rename(args.Old, args.New)
}

// VersionsReply lists a file's published snapshots.
type VersionsReply struct{ Versions []uint64 }

// Versions lists the snapshots of a file.
func (s *Service) Versions(args *PathArgs, reply *VersionsReply) error {
	vs, err := s.fs.Versions(args.Path)
	if err != nil {
		return err
	}
	for _, v := range vs {
		reply.Versions = append(reply.Versions, uint64(v))
	}
	return nil
}

// ShardsArgs optionally names a path; empty describes the tier only.
type ShardsArgs struct{ Path string }

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

// Shards exposes the version-manager tier topology — the shard-aware
// face of the service: remote tooling can see how blobs partition
// without reaching into the deployment.
func (s *Service) Shards(args *ShardsArgs, reply *ShardsReply) error {
	nodes := s.fs.VMShardNodes()
	reply.Count = len(nodes)
	for _, n := range nodes {
		reply.Nodes = append(reply.Nodes, uint64(n))
	}
	if args.Path != "" {
		blob, shard, err := s.fs.ShardOf(args.Path)
		if err != nil {
			return err
		}
		reply.Blob, reply.Shard = uint64(blob), shard
	}
	return nil
}

// ProvidersArgs is empty (reserved for future filters).
type ProvidersArgs struct{}

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

// ProvidersReply lists the provider fleet as of a membership epoch.
type ProvidersReply struct {
	Epoch     uint64
	Providers []ProviderInfo
}

// Providers reports the provider membership with per-node health and
// store occupancy — the operator's view of the placement subsystem.
func (s *Service) Providers(args *ProvidersArgs, reply *ProvidersReply) error {
	dep := s.fs.Deployment()
	reply.Epoch = dep.Placement.Epoch()
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
	return nil
}

// TenantsArgs is empty (reserved for future filters).
type TenantsArgs struct{}

// TenantInfo is one tenant's admission counters.
type TenantInfo struct {
	Tenant   string
	Admitted uint64
	Rejected uint64
	Inflight int
}

// TenantsReply describes the server's admission configuration and
// every tenant the limiter has seen.
type TenantsReply struct {
	// Enabled is false when the server runs without admission
	// (-tenant-rate 0); Rate/Burst and Tenants are then empty.
	Enabled bool
	Rate    float64 // admitted ops/sec per tenant
	Burst   float64 // bucket depth
	Tenants []TenantInfo
}

// Tenants reports per-tenant admitted/rejected/inflight counters from
// the admission layer — the operator's view of who is over rate.
func (s *Service) Tenants(args *TenantsArgs, reply *TenantsReply) error {
	lim := s.fs.Deployment().Admission
	if lim == nil {
		return nil
	}
	reply.Enabled = true
	reply.Rate, reply.Burst = lim.Rate(), lim.Burst()
	for _, st := range lim.Stats() {
		reply.Tenants = append(reply.Tenants, TenantInfo{
			Tenant:   st.Tenant,
			Admitted: st.Admitted,
			Rejected: st.Rejected,
			Inflight: st.Inflight,
		})
	}
	return nil
}

// NodeArgs names a provider node. For Join, 0 auto-allocates the next
// unused node id.
type NodeArgs struct{ Node uint64 }

// NodeReply reports the affected node and the membership epoch after
// the operation.
type NodeReply struct {
	Node  uint64
	Epoch uint64
}

// Join starts a new provider and adds it to the placement membership;
// the background placement loop migrates its ring share onto it.
func (s *Service) Join(args *NodeArgs, reply *NodeReply) error {
	dep := s.fs.Deployment()
	node := cluster.NodeID(args.Node)
	if node == 0 {
		// Auto-allocate past every node the deployment knows about.
		for _, n := range dep.Placement.Fleet() {
			if n >= node {
				node = n + 1
			}
		}
		for _, n := range dep.VM.Nodes() {
			if n >= node {
				node = n + 1
			}
		}
	}
	if _, err := dep.AddProvider(node); err != nil {
		return err
	}
	reply.Node, reply.Epoch = uint64(node), dep.Placement.Epoch()
	return nil
}

// Leave removes a provider from the membership and stops it. Replicas
// it held are restored by the placement loop; drain first for a
// graceful exit that never dips below the replication target.
func (s *Service) Leave(args *NodeArgs, reply *NodeReply) error {
	dep := s.fs.Deployment()
	if err := dep.RemoveProvider(cluster.NodeID(args.Node)); err != nil {
		return err
	}
	reply.Node, reply.Epoch = args.Node, dep.Placement.Epoch()
	return nil
}

// Drain marks a provider draining: it keeps serving reads, receives no
// new placements, and the placement loop migrates its pages away.
func (s *Service) Drain(args *NodeArgs, reply *NodeReply) error {
	dep := s.fs.Deployment()
	if err := dep.DrainProvider(cluster.NodeID(args.Node)); err != nil {
		return err
	}
	reply.Node, reply.Epoch = args.Node, dep.Placement.Epoch()
	return nil
}

// Serve accepts connections on l until it is closed.
func Serve(l net.Listener, svc *Service) error {
	srv := rpc.NewServer()
	if err := srv.RegisterName("BSFS", svc); err != nil {
		return err
	}
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
			var preamble [1]byte
			if _, err := io.ReadFull(conn, preamble[:]); err != nil {
				conn.Close()
				return
			}
			switch preamble[0] {
			case preambleCtl:
				srv.ServeConn(conn)
			case preambleData:
				svc.serveData(conn)
			default:
				conn.Close()
			}
		})
	}
}

// Client is one remote user of a server. Tenant, when set, attributes
// every subsequent data operation (Put, Append, Get, ReadRange) to that
// admission tenant; over-rate calls fail with an error matching
// core.ErrOverloaded. Data operations of one Client run one at a time.
type Client struct {
	Tenant string

	addr string
	mu   sync.Mutex // serialises data exchanges
	conn net.Conn
	br   *bufio.Reader

	ctlMu sync.Mutex
	ctl   *rpc.Client // dialed by the first control-plane call
}

func dial(addr string, preamble byte) (net.Conn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if _, err := conn.Write([]byte{preamble}); err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
}

// Dial connects to a bsfsd server.
func Dial(addr string) (*Client, error) {
	conn, err := dial(addr, preambleData)
	if err != nil {
		return nil, err
	}
	return &Client{addr: addr, conn: conn, br: bufio.NewReader(conn)}, nil
}

// Close releases the client's connections.
func (c *Client) Close() error {
	c.ctlMu.Lock()
	defer c.ctlMu.Unlock()
	if c.ctl != nil {
		c.ctl.Close()
	}
	return c.conn.Close()
}

// call makes one control-plane call, dialing that connection first if
// it is the client's first.
func call[Reply any](c *Client, method string, args any) (reply Reply, err error) {
	c.ctlMu.Lock()
	if c.ctl == nil {
		var conn net.Conn
		if conn, err = dial(c.addr, preambleCtl); err != nil {
			c.ctlMu.Unlock()
			return reply, err
		}
		c.ctl = rpc.NewClient(conn)
	}
	ctl := c.ctl
	c.ctlMu.Unlock()
	err = ctl.Call("BSFS."+method, args, &reply)
	return reply, err
}

// Put streams data into a new file.
func (c *Client) Put(path string, data []byte) error { return c.write(path, 0, data) }

// Append streams data onto an existing file.
func (c *Client) Append(path string, data []byte) error { return c.write(path, flagAppend, data) }

// Get reads a whole file (or snapshot version; 0 = latest).
func (c *Client) Get(path string, version uint64) ([]byte, error) {
	return c.read(path, version, 0, math.MaxInt64)
}

// ReadRange reads length bytes at off (fewer at the end of the file).
func (c *Client) ReadRange(path string, version uint64, off, length int64) ([]byte, error) {
	return c.read(path, version, off, length)
}

// Stat describes a path.
func (c *Client) Stat(path string) (StatReply, error) {
	return call[StatReply](c, "Stat", &PathArgs{Path: path})
}

// List enumerates a directory.
func (c *Client) List(path string) ([]StatReply, error) {
	lr, err := call[ListReply](c, "List", &PathArgs{Path: path})
	return lr.Entries, err
}

// Mkdir creates a directory.
func (c *Client) Mkdir(path string) error {
	_, err := call[CloseReply](c, "Mkdir", &PathArgs{Path: path})
	return err
}

// Delete removes a path.
func (c *Client) Delete(path string) error {
	_, err := call[CloseReply](c, "Delete", &PathArgs{Path: path})
	return err
}

// Rename moves a path.
func (c *Client) Rename(oldPath, newPath string) error {
	_, err := call[CloseReply](c, "Rename", &RenameArgs{Old: oldPath, New: newPath})
	return err
}

// Versions lists a file's snapshots.
func (c *Client) Versions(path string) ([]uint64, error) {
	vr, err := call[VersionsReply](c, "Versions", &PathArgs{Path: path})
	return vr.Versions, err
}

// Shards describes the server's version-manager tier; a non-empty path
// additionally resolves that file's blob id and owning shard.
func (c *Client) Shards(path string) (ShardsReply, error) {
	return call[ShardsReply](c, "Shards", &ShardsArgs{Path: path})
}

// Providers lists the provider fleet with health and store occupancy.
func (c *Client) Providers() (ProvidersReply, error) {
	return call[ProvidersReply](c, "Providers", &ProvidersArgs{})
}

// Tenants lists per-tenant admission counters.
func (c *Client) Tenants() (TenantsReply, error) {
	return call[TenantsReply](c, "Tenants", &TenantsArgs{})
}

// Join adds a provider on node (0 auto-allocates), returning the node
// chosen and the new membership epoch.
func (c *Client) Join(node uint64) (NodeReply, error) {
	return call[NodeReply](c, "Join", &NodeArgs{Node: node})
}

// Leave removes a provider from the fleet.
func (c *Client) Leave(node uint64) (NodeReply, error) {
	return call[NodeReply](c, "Leave", &NodeArgs{Node: node})
}

// Drain marks a provider draining so its pages migrate away.
func (c *Client) Drain(node uint64) (NodeReply, error) {
	return call[NodeReply](c, "Drain", &NodeArgs{Node: node})
}
