package bench

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/cluster"
)

// The paper's claims and the extensions' acceptance bars are rows of the
// claims table (claims_test.go), decided over the golden run that
// TestGolden pins. Each test below checks the rows that name it.

func TestE1ReadDistinctShapes(t *testing.T)                 { checkClaims(t) }
func TestE2ReadSharedShapes(t *testing.T)                   { checkClaims(t) }
func TestE3WriteBSFSBeatsHDFS(t *testing.T)                 { checkClaims(t) }
func TestBSFSSustainsUnderConcurrency(t *testing.T)         { checkClaims(t) }
func TestX1AppendSharedWorksOnlyOnBSFS(t *testing.T)        { checkClaims(t) }
func TestE4RandomTextWriter(t *testing.T)                   { checkClaims(t) }
func TestE5DistributedGrep(t *testing.T)                    { checkClaims(t) }
func TestX4SnapshotWorkflow(t *testing.T)                   { checkClaims(t) }
func TestX3FaultChurn(t *testing.T)                         { checkClaims(t) }
func TestX6MembershipChurn(t *testing.T)                    { checkClaims(t) }
func TestA1PlacementAblation(t *testing.T)                  { checkClaims(t) }
func TestA2ClientCacheAblation(t *testing.T)                { checkClaims(t) }
func TestX2PublishThroughputScalesWithWriters(t *testing.T) { checkClaims(t) }
func TestX5ShardedPublishScales(t *testing.T)               { checkClaims(t) }
func TestA7ShardedNotSlowerThanSingle(t *testing.T)         { checkClaims(t) }
func TestA6GroupCommitNotSlowerThanSerial(t *testing.T)     { checkClaims(t) }
func TestX7TieredRecovery(t *testing.T)                     { checkClaims(t) }
func TestX8GracefulDegradationUnderOverload(t *testing.T)   { checkClaims(t) }

// TestOptsSurface pins the fields, exported or not, of every options
// struct in the package: each is a settable value. The admission rule
// for a new one (see core's TestOptionsSurface): an experiment in this
// package sets it to a second value. A value every run shares is a
// constant beside the experiment that uses it, and an arm that compares
// the code with its own past is not an experiment.
func TestOptsSurface(t *testing.T) {
	for _, tc := range []struct {
		opts any
		want []string
	}{
		{SweepOpts{}, []string{"Clients", "BytesPerClient", "Spec", "MemCapacity", "Replication"}},
		{ClusterSpec{}, []string{"Nodes", "metaNodes"}},
		{StorageOpts{}, []string{"Kind", "replication", "pageSize", "BlockSize", "memCapacity", "store",
			"localFirstPlacement", "noClientCache", "ramDatanodes", "maxInFlightBlocks", "vmShards", "vmServiceTime"}},
		{AppOpts{}, []string{"Maps", "BytesPerMap", "Storage", "Spec"}},
		{microOpts{}, []string{"clients", "bytesPerClient", "recordSize", "storage", "spec"}},
		// Block size, pipeline depth and the version-manager tier are
		// StorageOpts fields.
		{publishOpts{}, []string{"writers", "files", "blocks", "storage", "spec"}},
		{faultOpts{}, []string{"clients", "bytesPerClient", "storage", "spec"}},
		{serveOpts{}, []string{"multiple", "admission"}},
	} {
		typ := reflect.TypeOf(tc.opts)
		t.Run(typ.Name(), func(t *testing.T) {
			var got []string
			for i := 0; i < typ.NumField(); i++ {
				got = append(got, typ.Field(i).Name)
			}
			if !slices.Equal(got, tc.want) {
				t.Errorf("%s has fields %v, want exactly %v", typ.Name(), got, tc.want)
			}
		})
	}
}

// TestPhase pins the measurement every experiment shares: the clients
// run at once, each is timed, the fabric bytes moved meanwhile are
// counted, and a failing client neither hides its error nor drops the
// other clients' timings.
func TestPhase(t *testing.T) {
	tb, err := NewTestbed(ClusterSpec{Nodes: 4}, StorageOpts{Kind: "bsfs"})
	if err != nil {
		t.Fatal(err)
	}
	nodes := tb.clientNodes(3)
	boom := errors.New("boom")
	var ok, failed point
	var okErr, failedErr error
	err = tb.Run(func() {
		// Client i sleeps i x 10ms; node 1 (client 0) moves 1 MiB instead.
		ok, okErr = tb.phase("ok", MB, nodes, func(i int, node cluster.NodeID) error {
			tb.Env.Sleep(time.Duration(i) * 10 * time.Millisecond)
			if node == 1 {
				tb.Net.Transfer(tb.Net.PathUnicast(node, 2), MB)
			}
			return nil
		})
		// Client i sleeps (i+1) x 10ms; client 0 then fails.
		failed, failedErr = tb.phase("failed", MB, nodes, func(i int, _ cluster.NodeID) error {
			tb.Env.Sleep(time.Duration(i+1) * 10 * time.Millisecond)
			if i == 0 {
				return boom
			}
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if okErr != nil {
		t.Fatal(okErr)
	}
	if ok.experiment != "ok" || ok.clients != 3 {
		t.Fatalf("point %q with %d clients, want \"ok\" with 3", ok.experiment, ok.clients)
	}
	if ok.duration < 20*time.Millisecond {
		t.Fatalf("makespan %s, want >= 20ms", ok.duration)
	}
	// The slowest client is the 20ms sleeper; the fastest moved 1 MiB in
	// under 10ms.
	if ok.minMBps != mbps(MB, 20*time.Millisecond) || ok.maxMBps <= mbps(MB, 10*time.Millisecond) {
		t.Fatalf("spread %.1f..%.1f MB/s, want min %.1f and max above %.1f",
			ok.minMBps, ok.maxMBps, mbps(MB, 20*time.Millisecond), mbps(MB, 10*time.Millisecond))
	}
	if ok.netBytes < MB {
		t.Fatalf("phase counted %d network bytes, want >= %d", ok.netBytes, MB)
	}
	if !errors.Is(failedErr, boom) {
		t.Fatalf("failing phase returned %v, want %v", failedErr, boom)
	}
	if failed.clients != 3 || failed.duration != 30*time.Millisecond ||
		failed.minMBps != mbps(MB, 30*time.Millisecond) || failed.maxMBps != mbps(MB, 10*time.Millisecond) {
		t.Fatalf("failing phase lost timings: %+v", failed)
	}
}

// TestSimRunLeavesNoGoroutines: background work runs only while there
// is work, so once a simulation's body has settled and Run returns,
// nothing of the deployment stays parked — no provider flusher, no
// MapReduce slot — and the process is back to its goroutine count from
// before the testbed.
func TestSimRunLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	tb, err := NewTestbed(ClusterSpec{Nodes: 20}, StorageOpts{Kind: "bsfs", BlockSize: 8 * MB})
	if err != nil {
		t.Fatal(err)
	}
	const settle = 10 * time.Second // virtual: readahead and flushes finish
	var runErr error
	err = tb.Run(func() {
		if runErr = writeSynthFile(tb, 1, "/in", 32*MB); runErr != nil {
			return
		}
		tb.Env.Sleep(settle)
		mr, err := newMRCluster(tb)
		if err != nil {
			runErr = err
			return
		}
		res, err := mr.Submit(apps.SyntheticGrep([]string{"/in"}, "/out"))
		if err != nil || res.Counters.MapTasks != 4 {
			runErr = fmt.Errorf("grep: %+v, %v; want 4 maps", res, err)
			return
		}
		tb.Env.Sleep(settle)
	})
	if err == nil {
		err = runErr
	}
	if err != nil {
		t.Fatal(err)
	}
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(10 * time.Second); n > before; n = runtime.NumGoroutine() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left after Run, %d before the testbed", n, before)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
