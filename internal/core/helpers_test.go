package core

import (
	"testing"
	"time"

	"repro/internal/cluster"
)

// bg is the never-canceled op scope used wherever a test has no
// cancellation of its own.
var bg = cluster.Background()

// withDeadline derives a Ctx that a daemon cancels after d of env's
// time.
func withDeadline(env cluster.Env, d time.Duration) (*cluster.Ctx, func()) {
	ctx, cancel := cluster.WithCancel(env)
	env.Daemon(func() {
		env.Sleep(d)
		cancel()
	})
	return ctx, cancel
}

// openB opens a handle for an existing blob, failing the test on error.
func openB(t testing.TB, c *Client, id BlobID) *Blob {
	t.Helper()
	b, err := c.OpenBlob(id)
	if err != nil {
		t.Fatalf("OpenBlob(%d): %v", id, err)
	}
	return b
}

// first adapts a batch append's results to single-append shape: the
// one published version, the landing offset, and the error.
func first(vs []Version, off int64, err error) (Version, int64, error) {
	var v Version
	if len(vs) > 0 {
		v = vs[0]
	}
	return v, off, err
}

// ticket1, publish1 and abort1 drive the version manager's batched
// write-side RPCs with a batch of one — a single write's shape.
func ticket1(vm *VersionManager, from cluster.NodeID, blob BlobID, off, length int64) (Ticket, error) {
	ts, err := vm.RequestTickets(from, blob, []WriteIntent{{Off: off, Length: length}}, 0)
	if err != nil {
		return Ticket{}, err
	}
	return ts[0], nil
}

func publish1(vm *VersionManager, ctx *cluster.Ctx, from cluster.NodeID, blob BlobID, v Version) error {
	return vm.PublishBatch(ctx, from, blob, []Version{v})
}

func abort1(vm *VersionManager, from cluster.NodeID, blob BlobID, v Version) error {
	return vm.abortBatch(from, blob, []Version{v})
}

// roundRobin is a placement.Strategy that stripes consecutive pages
// over provs, replicas on the providers that follow: tests that script
// which provider holds which page pin it.
type roundRobin struct {
	provs []cluster.NodeID
	next  int
}

func (r *roundRobin) Place(_ cluster.NodeID, keys []string, replication int) [][]cluster.NodeID {
	out := make([][]cluster.NodeID, len(keys))
	for i := range out {
		for j := range replication {
			out[i] = append(out[i], r.provs[(r.next+j)%len(r.provs)])
		}
		r.next = (r.next + 1) % len(r.provs)
	}
	return out
}

// frontier reads a blob's publication frontier as the length of its
// records: one round trip, like any other version-manager read.
func frontier(vm *VersionManager, from cluster.NodeID, blob BlobID) (Version, error) {
	recs, err := vm.records(from, blob)
	return Version(len(recs)), err
}
