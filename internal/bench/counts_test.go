//go:build !race

package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bsfs"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/fsapi"
	"repro/internal/pagestore"
	"repro/internal/rpcnet"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// BENCH_counts.json holds the counters that do not depend on the host:
// allocations per operation, bytes allocated per byte moved, DHT keys
// per append. TestCounts measures each at a fixed shape, through
// exported API only, and compares it with its row. A rise beyond the
// row's tolerance is a regression. A fall beyond it is a win that must
// be recorded with -update, so `git log BENCH_counts.json` is the
// per-layer history. The tolerance is 0 where the count is exact and the
// spread measured over repeated runs where it jitters. The race runtime
// inflates allocation counts, so the file is built without it. A row
// that reads process-wide state (runtime.MemStats) is measured in a
// child process of its own, so nothing another test left behind moves
// it.
const countsPath = "../../BENCH_counts.json"

// A countRow is one counter at one shape.
type countRow struct {
	Name      string  `json:"name"`
	Shape     string  `json:"shape"`
	Value     float64 `json:"value"`
	Tolerance float64 `json:"tolerance"`
}

// counters is what TestCounts measures, one row each.
var counters = []struct {
	name, shape string
	measure     func(t *testing.T) float64
}{
	{"core.append_synthetic_allocs", "1 RAM provider, flushing stopped, 256 KiB pages; one 1 MiB synthetic Append (4 pages); AllocsPerRun(300)",
		func(t *testing.T) float64 {
			blob := oneProviderBlob(t, 256<<10)
			blocks := core.SyntheticBlocks(1 << 20)
			return testing.AllocsPerRun(300, func() { mustAppend(t, blob, blocks) })
		}},
	{"core.append_real_allocs", "1 RAM provider, flushing stopped, 64 KiB pages; one 256 KiB Append of real bytes (4 pages); AllocsPerRun(300)",
		func(t *testing.T) float64 {
			blob := oneProviderBlob(t, 64<<10)
			blocks := core.Blocks(make([]byte, 256<<10))
			return testing.AllocsPerRun(300, func() { mustAppend(t, blob, blocks) })
		}},
	{"core.cached_read_synthetic_allocs", "1 RAM provider, flushing stopped, 256 KiB pages, a 64 MiB synthetic version; a 16 MiB synthetic ReadAt of it, metadata cached; AllocsPerRun(300)",
		func(t *testing.T) float64 {
			blob := oneProviderBlob(t, 256<<10)
			v := mustAppend(t, blob, core.SyntheticBlocks(64<<20))
			return testing.AllocsPerRun(300, func() { mustRead(t, blob, nil, 0, 16<<20, core.AtVersion(v), core.Synthetic(16<<20)) })
		}},
	{"core.cached_read_real_allocs", "1 RAM provider, flushing stopped, 64 KiB pages, a 1 MiB version of real bytes; a 1 MiB ReadAt of it, metadata cached; AllocsPerRun(300)",
		func(t *testing.T) float64 {
			blob := oneProviderBlob(t, 64<<10)
			v := mustAppend(t, blob, core.Blocks(make([]byte, 1<<20)))
			buf := make([]byte, 1<<20)
			return testing.AllocsPerRun(300, func() { mustRead(t, blob, buf, 0, len(buf), core.AtVersion(v)) })
		}},
	{"core.first_write_fresh_client_bytes", "1 RAM provider, 4 KiB pages, 20000 one-page versions, then flushing stopped; bytes allocated by a fresh client's first one-page synthetic Append, least of 8 clients",
		isolated(measureFirstWrite)},
	{"vm.publish_one_allocs", "a blob's version-manager shard, 1000 tickets taken; a one-version PublishBatch; AllocsPerRun(1000)",
		measurePublishOne},
	{"dht.keys_per_append", sharedAppendShape + "; DHT keys stored per append over the first 2000 appends, as bsfs-perf traces it",
		func(t *testing.T) float64 {
			dep, blob := sharedAppendBlob(t, 0)
			keys0 := dep.Meta.TotalKeys()
			block := core.Blocks(make([]byte, 16<<10))
			for i := 0; i < 2000; i++ {
				mustAppend(t, blob, block)
			}
			return float64(dep.Meta.TotalKeys()-keys0) / 2000
		}},
	{"core.shared_append_allocs", sharedAppendShape + "; one 16 KiB Append onto 2000; AllocsPerRun(100)",
		func(t *testing.T) float64 {
			_, blob := sharedAppendBlob(t, 2000)
			block := core.Blocks(make([]byte, 16<<10))
			return testing.AllocsPerRun(100, func() { mustAppend(t, blob, block) })
		}},
	{"core.shared_read_allocs", sharedAppendShape + "; a second client's 64 KiB ReadAt at version 1000, offset 8 MiB, of 2000 appends, metadata cached; AllocsPerRun(100)",
		func(t *testing.T) float64 {
			dep, blob := sharedAppendBlob(t, 2000)
			reader, err := dep.NewClient(0).OpenBlob(blob.ID())
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 64<<10)
			return testing.AllocsPerRun(100, func() { mustRead(t, reader, buf, 8<<20, len(buf), core.AtVersion(1000)) })
		}},
	{"rpcnet.get_bytes_per_byte", "bsfsd's stack over loopback TCP: 3 RAM providers, 256 KiB pages, 4 MiB blocks; bytes allocated, server and client, per byte of ten 8 MiB Gets",
		isolated(func(t *testing.T) float64 {
			c, _ := serveWire(t, core.ProviderConfig{}, 4<<20)
			put(t, c, "/f", make([]byte, 8<<20))
			return getBytesPerByte(t, c)
		})},
	{"rpcnet.get_disk_miss_bytes_per_byte", "rpcnet.get_bytes_per_byte with disk-backed providers caching one 256 KiB page each, flushed, so at least 90 % of page reads miss",
		isolated(func(t *testing.T) float64 {
			c, dep := serveWire(t, core.ProviderConfig{MemCapacity: 256 << 10, Store: "disk:" + t.TempDir()}, 4<<20)
			put(t, c, "/f", make([]byte, 8<<20))
			misses := func() (n uint64) {
				for _, p := range dep.ProviderList() {
					n += p.Store().Stats().Misses
				}
				return n
			}
			for _, p := range dep.ProviderList() { // clean pages are evictable
				if err := p.FlushNow(); err != nil {
					t.Fatal(err)
				}
			}
			before := misses()
			perByte := getBytesPerByte(t, c)
			if missed, pages := misses()-before, uint64(11*32); missed*10 < pages*9 {
				t.Fatalf("%d of %d page reads missed the providers' caches, want at least 90 %%", missed, pages)
			}
			return perByte
		})},
	{"rpcnet.put_bytes_per_byte", "bsfsd's stack over loopback TCP: 3 disk-backed providers with 16 MiB caches, 256 KiB pages, 4 MiB blocks; bytes allocated, server and client, per byte of ten 8 MiB Puts",
		isolated(func(t *testing.T) float64 {
			c, _ := serveWire(t, core.ProviderConfig{MemCapacity: 16 << 20, Store: "disk:" + t.TempDir()}, 4<<20)
			data := make([]byte, 8<<20)
			put(t, c, "/warm", data) // fill the free blocks
			return bytesPerByte(len(data), 10, func(i int) { put(t, c, fmt.Sprintf("/f%d", i), data) })
		})},
	{"rpcnet.put_small_file_bytes", "bsfsd's stack over loopback TCP, 64 MiB blocks; bytes allocated by the first Put, of a 1 KiB file, least of 8 fresh stacks",
		isolated(measurePutSmall)},
	{"sim.live_heap_bytes_per_page", "a 20-node BSFS testbed, 256 KiB pages: 8 clients each write a 256 MiB synthetic file, then 8 fresh clients each read one; every client kept; bytes of live heap after two GCs per page written, least of 3 runs",
		isolated(measureLiveHeap)},
	{"pagestore.heap_objects_per_page", "a fresh RAM page store: 100000 synthetic 4 KiB puts under pageKey-shaped keys the caller builds and drops, then half of them flushed; heap objects live after two GCs per page",
		isolated(measurePageHeapObjects)},
	{"dht.first_store_bytes", "a fresh one-server DHT (16 vnodes, replication 1) and its client, after a one-key Store to another has filled the scratch pool; bytes allocated by its first one-key Store, least of 8 fresh DHTs",
		isolated(measureFirstStore)},
	{"sim.sleep_allocs", "one process's Sleep(1 µs); AllocsPerRun(100)",
		func(t *testing.T) float64 {
			var allocs float64
			runSim(t, func(e *sim.Engine) {
				allocs = testing.AllocsPerRun(100, func() { e.Sleep(time.Microsecond) })
			})
			return allocs
		}},
	{"sim.signal_wait_allocs", "one process's Wait on a fresh Signal that a second process fires 1 ns later; AllocsPerRun(100)",
		func(t *testing.T) float64 {
			var allocs float64
			runSim(t, func(e *sim.Engine) {
				sigs := make([]*sim.Signal, 101) // AllocsPerRun adds one warm-up run
				for i := range sigs {
					sigs[i] = e.NewSignal()
				}
				e.Go(func() {
					for _, s := range sigs {
						e.Sleep(time.Nanosecond)
						s.Fire()
					}
				})
				i := 0
				allocs = testing.AllocsPerRun(100, func() {
					sigs[i].Wait()
					i++
				})
			})
			return allocs
		}},
	{"simnet.small_gather_allocs", "Grid5000(150); one process's PathGather into node 0 from 16 sources spread over the 5 racks, then a 4 KiB Transfer of it (below the solver's cutoff); AllocsPerRun(100)",
		func(t *testing.T) float64 {
			srcs := make([]simnet.NodeID, 16)
			for i := range srcs {
				srcs[i] = simnet.NodeID(1 + 9*i)
			}
			var allocs float64
			runSim(t, func(e *sim.Engine) {
				n := simnet.New(e, simnet.Grid5000(150))
				allocs = testing.AllocsPerRun(100, func() { n.Transfer(n.PathGather(0, srcs), 4<<10) })
			})
			return allocs
		}},
	{"simnet.flush_allocs", "Grid5000(150) carrying BenchmarkMaxMinSolver/paper-shape's background, none of it ending (140 disk flushes, 50 scatters to 64 nodes, seed 1); one process's 1 MiB DiskWrite on the disk none of them uses; AllocsPerRun(100)",
		func(t *testing.T) float64 {
			var allocs float64
			runSim(t, func(e *sim.Engine) {
				const nodes = 150
				n := simnet.New(e, simnet.Grid5000(nodes))
				rng := rand.New(rand.NewSource(1))
				size := func() int64 { return 1<<40 + rng.Int63n(8<<20+1) }
				busy := make([]bool, nodes)
				for _, node := range rng.Perm(nodes)[:140] {
					busy[node] = true
					sz := size()
					e.GoDaemon(func() { n.DiskWrite(simnet.NodeID(node), sz) })
				}
				for range 50 {
					src, sz := simnet.NodeID(rng.Intn(nodes)), size()
					dests := make([]simnet.NodeID, 64)
					for j, d := range rng.Perm(nodes)[:64] {
						dests[j] = simnet.NodeID(d)
					}
					e.GoDaemon(func() { n.Transfer(n.PathScatter(src, dests), sz) })
				}
				e.Sleep(time.Millisecond)
				free := simnet.NodeID(slices.Index(busy, false))
				allocs = testing.AllocsPerRun(100, func() { n.DiskWrite(free, 1<<20) })
			})
			return allocs
		}},
}

// sharedAppendShape is the core stack of bsfs-perf's shared-append
// workload.
const sharedAppendShape = "4 RAM providers, 4 KiB pages, replication 1, flushing stopped after the preload"

// TestCounts measures every counter and compares it with its row of
// BENCH_counts.json; with -update it rewrites the file from this run,
// keeping each row's tolerance.
func TestCounts(t *testing.T) {
	var rows, got []countRow
	raw, err := os.ReadFile(countsPath)
	if err == nil {
		err = json.Unmarshal(raw, &rows)
	}
	if err != nil && !*update {
		t.Fatal(err)
	}
	for _, c := range counters {
		t.Run(c.name, func(t *testing.T) {
			v := c.measure(t)
			t.Logf("%v", v)
			got = append(got, countRow{Name: c.name, Shape: c.shape, Value: v})
		})
	}
	if !*update {
		for _, msg := range compareCounts(rows, got) {
			t.Error(msg)
		}
		return
	}
	for i := range got {
		for _, r := range rows {
			if r.Name == got[i].Name {
				got[i].Tolerance = r.Tolerance
			}
		}
	}
	out, err := json.MarshalIndent(got, "", "  ")
	if err == nil {
		err = os.WriteFile(countsPath, append(out, '\n'), 0o644)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// childRowEnv names the row a child process of TestCounts measures, and
// childPrefix starts the line that reports its value.
const (
	childRowEnv = "BENCH_COUNTS_ROW"
	childPrefix = "counts-child:"
)

// isolated wraps a measurement that reads process-wide state: TestCounts
// runs it in a child process, this test binary re-executed with
// TestCountsChild selected and the row named in childRowEnv, and parses
// the value from the child's output.
func isolated(measure func(t *testing.T) float64) func(t *testing.T) float64 {
	return func(t *testing.T) float64 {
		if os.Getenv(childRowEnv) != "" {
			return measure(t)
		}
		name := strings.TrimPrefix(t.Name(), "TestCounts/")
		cmd := exec.Command(os.Args[0], "-test.run=^TestCountsChild$", "-test.count=1")
		cmd.Env = append(os.Environ(), childRowEnv+"="+name)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("child measuring %s: %v\n%s", name, err, out)
		}
		for _, line := range strings.Split(string(out), "\n") {
			if v, ok := strings.CutPrefix(line, childPrefix); ok {
				f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
				if err != nil {
					t.Fatal(err)
				}
				return f
			}
		}
		t.Fatalf("child measuring %s reported no value:\n%s", name, out)
		return 0
	}
}

// TestCountsChild measures the one row childRowEnv names, in a process
// TestCounts started for it. Without the variable it has nothing to do.
func TestCountsChild(t *testing.T) {
	name := os.Getenv(childRowEnv)
	if name == "" {
		t.Skip("runs only as a child of TestCounts")
	}
	for _, c := range counters {
		if c.name == name {
			fmt.Printf("%s %v\n", childPrefix, c.measure(t))
			return
		}
	}
	t.Fatalf("no counter %q", name)
}

// compareCounts returns one complaint per committed row that this run's
// measurement leaves outside its tolerance or at another shape, and per
// counter that has a row on one side only.
func compareCounts(rows, got []countRow) []string {
	var out []string
	measured := map[string]countRow{}
	for _, g := range got {
		measured[g.Name] = g
	}
	for _, r := range rows {
		g, ok := measured[r.Name]
		delete(measured, r.Name)
		switch {
		case !ok:
			out = append(out, fmt.Sprintf("%s: a row, but nothing measured it", r.Name))
		case g.Shape != r.Shape:
			out = append(out, fmt.Sprintf("%s: measured at %q, but the row is at %q; %s", r.Name, g.Shape, r.Shape, updateHint))
		case g.Value > r.Value+r.Tolerance:
			out = append(out, fmt.Sprintf("%s: %v, above the row's %v + %v", r.Name, g.Value, r.Value, r.Tolerance))
		case g.Value < r.Value-r.Tolerance:
			out = append(out, fmt.Sprintf("%s: %v, below the row's %v - %v; record the win: %s", r.Name, g.Value, r.Value, r.Tolerance, updateHint))
		}
	}
	for _, g := range got {
		if _, ok := measured[g.Name]; ok {
			out = append(out, fmt.Sprintf("%s: measured %v, but it has no row; %s", g.Name, g.Value, updateHint))
		}
	}
	return out
}

const updateHint = "go test ./internal/bench -run TestCounts -update"

// TestCompareCounts pins the comparison TestCounts applies: a counter
// outside its tolerance fails either way, a fall asks for -update, and
// a row or a measurement on one side only fails.
func TestCompareCounts(t *testing.T) {
	row := []countRow{{Name: "c", Shape: "s", Value: 100, Tolerance: 2}}
	at := func(v float64) []countRow { return []countRow{{Name: "c", Shape: "s", Value: v}} }
	for _, tc := range []struct {
		name      string
		rows, got []countRow
		want      string // in the one complaint; none if empty
		hint      bool   // the complaint asks for -update
	}{
		{"within", row, at(98), "", false},
		{"rise", row, at(102.5), "above the row's 100 + 2", false},
		{"fall", row, at(97), "below the row's 100 - 2", true},
		{"other shape", row, []countRow{{Name: "c", Shape: "t", Value: 100}}, "measured at", true},
		{"row only", row, nil, "nothing measured it", false},
		{"measurement only", nil, at(100), "has no row", true},
	} {
		out := compareCounts(tc.rows, tc.got)
		switch {
		case tc.want == "" && len(out) != 0, tc.want != "" && len(out) != 1:
			t.Errorf("%s: %q", tc.name, out)
		case tc.want != "" && (!strings.Contains(out[0], tc.want) || strings.Contains(out[0], updateHint) != tc.hint):
			t.Errorf("%s: %q, want %q, hint %v", tc.name, out[0], tc.want, tc.hint)
		}
	}
}

// bytesPerByte is the bytes the process allocates over n calls of f,
// per byte of size moved by each, to three decimals.
func bytesPerByte(size, n int, f func(i int)) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		f(i)
	}
	runtime.ReadMemStats(&m1)
	return math.Round(1000*float64(m1.TotalAlloc-m0.TotalAlloc)/float64(n*size)) / 1000
}

// oneProviderBlob is a fresh blob of a Local deployment with one
// provider, so every fan-out takes its inline single-node case and no
// goroutine spawn enters the count.
func oneProviderBlob(t *testing.T, pageSize int64) *core.Blob {
	dep := newDeployment(t, cluster.NewLocal(4, 2), core.Options{PageSize: pageSize, ProviderNodes: []cluster.NodeID{1}})
	blob, err := dep.NewClient(0).CreateBlob(0)
	if err != nil {
		t.Fatal(err)
	}
	stopFlushers(dep)
	return blob
}

// stopFlushers stops dep's flushing. A put on a running provider starts
// a flusher, which allocates, and how many land inside a measurement
// depends on the scheduler, so only the operation's own allocations are
// counted. The pages stay dirty in RAM.
func stopFlushers(dep *core.Deployment) {
	for _, p := range dep.ProviderList() {
		p.Stop()
	}
}

// sharedAppendBlob is a blob on sharedAppendShape's deployment, after
// the given number of 16 KiB appends.
func sharedAppendBlob(t *testing.T, appends int) (*core.Deployment, *core.Blob) {
	dep := newDeployment(t, cluster.NewLocal(5, 0), core.Options{PageSize: 4 << 10, Replication: 1, ProviderNodes: []cluster.NodeID{1, 2, 3, 4}})
	blob, err := dep.NewClient(0).CreateBlob(4 << 10)
	if err != nil {
		t.Fatal(err)
	}
	block := core.Blocks(make([]byte, 16<<10))
	for i := 0; i < appends; i++ {
		mustAppend(t, blob, block)
	}
	stopFlushers(dep)
	return dep, blob
}

func newDeployment(t *testing.T, env cluster.Env, opts core.Options) *core.Deployment {
	t.Helper()
	dep, err := core.NewDeployment(env, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dep.Close() })
	return dep
}

// mustAppend appends blocks as one version and returns it.
func mustAppend(t *testing.T, blob *core.Blob, blocks []core.AppendBlock) core.Version {
	vs, _, err := blob.Append(blocks)
	if err != nil {
		t.Fatal(err)
	}
	return vs[0]
}

func mustRead(t *testing.T, blob *core.Blob, buf []byte, off int64, want int, opts ...core.ReadOption) {
	if n, err := blob.ReadAt(buf, off, opts...); err != nil || n != int64(want) {
		t.Fatalf("read %d, %v", n, err)
	}
}

// measureFirstWrite: a client's first write to a blob costs no more for
// a long history. The client holds no history (its ticket carries the
// borrows), so it copies and indexes nothing; a copy of 20 000 write
// records alone would be 1.4 MB. The least of several clients is
// taken: a stray allocation by another goroutine lands in one of them.
func measureFirstWrite(t *testing.T) float64 {
	const ps, versions, clients = 4 << 10, 20_000, 8
	dep := newDeployment(t, cluster.NewLocal(4, 2), core.Options{PageSize: ps, ProviderNodes: []cluster.NodeID{1}})
	blob, err := dep.NewClient(0).CreateBlob(0)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]core.AppendBlock, 500)
	for i := range batch {
		batch[i] = core.AppendBlock{Size: ps}
	}
	for done := 0; done < versions; done += len(batch) {
		mustAppend(t, blob, batch)
	}
	stopFlushers(dep)
	fresh := make([]*core.Blob, clients)
	for i := range fresh {
		if fresh[i], err = dep.NewClient(0).OpenBlob(blob.ID()); err != nil {
			t.Fatal(err)
		}
	}
	least := math.Inf(1)
	for _, b := range fresh {
		least = min(least, bytesPerByte(1, 1, func(int) { mustAppend(t, b, core.SyntheticBlocks(ps)) }))
	}
	return least
}

// measurePutSmall: a small file costs its own bytes, not a block's. A
// first Put also pays for whatever the process-wide caches lack, so its
// count depended on what ran before it. warmRuntime refills the
// runtime's caches, and the least of 8 stacks is the cost once the
// stacks before it in this loop have warmed the scratch pools.
func measurePutSmall(t *testing.T) float64 {
	least := math.Inf(1)
	for range 8 {
		c, _ := serveWire(t, core.ProviderConfig{}, 64<<20)
		if _, err := c.Stat("/"); err != nil { // the connection is served
			t.Fatal(err)
		}
		warmRuntime()
		least = min(least, bytesPerByte(1, 1, func(int) { put(t, c, "/small", make([]byte, 1<<10)) }))
	}
	return least
}

// warmRuntime leaves the runtime spare goroutine descriptors and channel
// waiters, so a measurement that starts goroutines does not count the
// runtime's own allocations. Every stack serveWire starts keeps its
// goroutines, which uses up the spares earlier tests left.
func warmRuntime() {
	var wg sync.WaitGroup
	ch := make(chan struct{})
	for range 256 {
		wg.Add(1)
		go func() {
			<-ch
			wg.Done()
		}()
	}
	close(ch)
	wg.Wait()
}

// measureFirstStore: a fresh DHT server's first one-key Store allocates
// a small first chunk of its arena, not a large one. Another cluster's
// Store first fills the client's scratch pool, which every cluster
// shares. The pool is per P, so a Store that runs on another P than the
// warm-up refills it; the least of several fresh clusters leaves that
// out.
func measureFirstStore(t *testing.T) float64 {
	env, nodes := cluster.NewLocal(1, 0), []cluster.NodeID{0}
	keys, vals := [][]byte{[]byte("key/0")}, [][]byte{[]byte("val/0")}
	store := func(c *dht.Client) {
		if err := c.Store(keys, vals); err != nil {
			t.Fatal(err)
		}
	}
	store(dht.NewCluster(nodes, 16, 1).NewClient(env, 0))
	least := math.Inf(1)
	for range 8 {
		c := dht.NewCluster(nodes, 16, 1).NewClient(env, 0)
		least = min(least, bytesPerByte(1, 1, func(int) { store(c) }))
	}
	return least
}

// measurePageHeapObjects counts what a page store keeps on the heap per
// page it holds, the load the collector traces on every cycle.
func measurePageHeapObjects(t *testing.T) float64 {
	const pages, size = 100_000, 4 << 10
	objects := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapObjects
	}
	before := objects()
	s, err := pagestore.Open(pagestore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range pages {
		if err := s.PutSynthetic(fmt.Sprintf("p/%d/%d/%d", 1+i%7, 1+i/64, i%64), size); err != nil {
			t.Fatal(err)
		}
	}
	batch, _ := s.TakeDirty(pages / 2 * size)
	if err := s.CommitFlush(batch); err != nil {
		t.Fatal(err)
	}
	after := objects()
	runtime.KeepAlive(s)
	return float64(after-before) / pages
}

// measurePublishOne: a one-version PublishBatch resolves under the
// manager's lock in the caller and allocates only its wait list.
func measurePublishOne(t *testing.T) float64 {
	const runs = 1000
	dep := newDeployment(t, cluster.NewLocal(2, 0), core.Options{ProviderNodes: []cluster.NodeID{1}})
	blob, err := dep.NewClient(1).CreateBlob(128)
	if err != nil {
		t.Fatal(err)
	}
	vm := dep.VM.Shard(blob.ID())
	intents := make([]core.WriteIntent, runs+1) // AllocsPerRun adds a warm-up call
	for i := range intents {
		intents[i] = core.WriteIntent{Off: -1, Length: 128}
	}
	if _, err := vm.RequestTickets(1, blob.ID(), intents, 0); err != nil {
		t.Fatal(err)
	}
	vs := make([]core.Version, 1)
	allocs := testing.AllocsPerRun(runs, func() {
		vs[0]++
		if err := vm.PublishBatch(cluster.Background(), 1, blob.ID(), vs); err != nil {
			t.Fatal(err)
		}
	})
	if v, _, err := blob.Latest(); err != nil || v != runs+1 {
		t.Fatalf("frontier at %d after %d publishes: %v", v, runs+1, err)
	}
	return allocs
}

// serveWire serves a BSFS file system over loopback TCP, as bsfsd
// does, on three providers, and dials it.
func serveWire(t *testing.T, prov core.ProviderConfig, blockSize int64) (*rpcnet.Client, *core.Deployment) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	dep := newDeployment(t, cluster.NewLocal(4, 0), core.Options{PageSize: 256 << 10, Provider: prov, ProviderNodes: []cluster.NodeID{1, 2, 3}})
	go rpcnet.Serve(l, rpcnet.NewService(bsfs.NewService(dep, bsfs.Config{BlockSize: blockSize}).NewFS(0)))
	c, err := rpcnet.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, dep
}

func put(t *testing.T, c *rpcnet.Client, path string, data []byte) {
	if err := c.Put(path, data); err != nil {
		t.Fatal(err)
	}
}

// getBytesPerByte gets the 8 MiB file /f once to fill the free blocks,
// then measures ten more gets.
func getBytesPerByte(t *testing.T, c *rpcnet.Client) float64 {
	get := func(int) {
		if got, err := c.Get("/f", 0); err != nil || len(got) != 8<<20 {
			t.Fatalf("get: %d bytes, %v", len(got), err)
		}
	}
	get(0)
	return bytesPerByte(8<<20, 10, get)
}

// runSim runs body as one process of a fresh engine.
func runSim(t *testing.T, body func(e *sim.Engine)) {
	e := sim.NewEngine()
	e.Go(func() { body(e) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// measureLiveHeap: what a simulated deployment and its clients keep per
// page written, once GC has dropped everything else. That is the
// metadata DHT, the providers' page tables and the clients' metadata
// caches: the state that bounds how large a simulation fits in memory.
// Two cycles also drop what scratch pools hold. The first run in a
// process leaves runtime state behind that later runs reuse, so the
// count is the least of three runs, whatever ran before them.
func measureLiveHeap(t *testing.T) float64 {
	least := math.Inf(1)
	for range 3 {
		least = min(least, liveHeapPerPage(t))
	}
	return least
}

// liveHeapPerPage is one run of measureLiveHeap.
func liveHeapPerPage(t *testing.T) float64 {
	const clients, size = 8, 256 << 20
	live := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := live()
	tb, err := NewTestbed(ClusterSpec{Nodes: 20}, StorageOpts{Kind: "bsfs"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tb.Close() })
	fss := make([]fsapi.FileSystem, 2*clients)
	each := func(fn func(i int) error) {
		wg := tb.Env.NewWaitGroup()
		for i := range clients {
			wg.Go(func() {
				if err := fn(i); err != nil {
					t.Error(err)
				}
			})
		}
		wg.Wait()
	}
	err = tb.Run(func() {
		each(func(i int) error {
			fss[i] = tb.NewFS(cluster.NodeID(1 + i))
			w, err := fss[i].Create(fmt.Sprintf("/f%d", i))
			if err != nil {
				return err
			}
			if _, err := w.WriteSynthetic(size); err != nil {
				return err
			}
			return w.Close()
		})
		each(func(i int) error {
			fss[clients+i] = tb.NewFS(cluster.NodeID(1 + clients + i))
			r, err := fss[clients+i].Open(fmt.Sprintf("/f%d", i))
			if err != nil {
				return err
			}
			defer r.Close()
			if n, err := r.ReadSyntheticAt(0, size); err != nil || n != size {
				return fmt.Errorf("read %d of %d bytes: %v", n, size, err)
			}
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	after := live()
	runtime.KeepAlive(fss)
	return math.Round(float64(after-before) / (clients * size / (256 << 10)))
}
