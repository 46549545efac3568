package mapreduce

import (
	"errors"
	"fmt"
	"io"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bsfs"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fsapi"
	"repro/internal/hdfs"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// testEnv bundles a local environment with a storage factory.
type testEnv struct {
	env   cluster.Env
	newFS func(cluster.NodeID) fsapi.FileSystem
}

func newBSFSEnv(t *testing.T, blockSize int64) testEnv {
	t.Helper()
	env := cluster.NewLocal(8, 4)
	dep, err := core.NewDeployment(env, core.Options{
		PageSize:      64,
		ProviderNodes: []cluster.NodeID{1, 2, 3, 4, 5, 6, 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dep.Close() })
	svc := bsfs.NewService(dep, bsfs.Config{BlockSize: blockSize})
	return testEnv{env: env, newFS: func(n cluster.NodeID) fsapi.FileSystem { return svc.NewFS(n) }}
}

func newHDFSEnv(t *testing.T, chunkSize int64) testEnv {
	t.Helper()
	env := cluster.NewLocal(8, 4)
	dep, err := hdfs.NewDeployment(env, hdfs.Config{
		DataNodes:    []cluster.NodeID{1, 2, 3, 4, 5, 6, 7},
		ChunkSize:    chunkSize,
		Replication:  2,
		WriteThrough: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return testEnv{env: env, newFS: func(n cluster.NodeID) fsapi.FileSystem { return dep.NewFS(n) }}
}

func newMR(t *testing.T, te testEnv) *Cluster {
	t.Helper()
	workers := []cluster.NodeID{1, 2, 3, 4, 5, 6, 7}
	c, err := NewCluster(te.env, Config{
		WorkerNodes: workers,
		NewFS:       te.newFS,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func putFile(t *testing.T, fs fsapi.FileSystem, path, content string) {
	t.Helper()
	w, err := fs.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte(content)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func readAll(t *testing.T, fs fsapi.FileSystem, path string) string {
	t.Helper()
	r, err := fs.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	b, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// readOutputs concatenates all part files of a job output directory.
func readOutputs(t *testing.T, fs fsapi.FileSystem, dir string) string {
	t.Helper()
	infos, err := fs.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, fi := range infos {
		if !fi.IsDir {
			sb.WriteString(readAll(t, fs, fi.Path))
		}
	}
	return sb.String()
}

// wordCountJob builds a minimal inline wordcount (apps has the full
// one; this avoids an import cycle in tests of the framework itself).
func wordCountJob(input, output string, reduces int) JobConfig {
	return JobConfig{
		Name:       "wc",
		Input:      []string{input},
		OutputDir:  output,
		NumReduces: reduces,
		Map: func(off int64, rec []byte, emit EmitFunc) error {
			for _, w := range strings.Fields(string(rec)) {
				emit([]byte(w), []byte("1"))
			}
			return nil
		},
		Reduce: func(key []byte, values [][]byte, emit EmitFunc) error {
			emit(key, []byte(fmt.Sprintf("%d", len(values))))
			return nil
		},
	}
}

func testWordCount(t *testing.T, te testEnv) {
	mr := newMR(t, te)
	fs := te.newFS(0)
	putFile(t, fs, "/in/text", "the quick brown fox\nthe lazy dog\nthe fox\n")
	res, err := mr.Submit(wordCountJob("/in/text", "/out", 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.MapTasks < 1 {
		t.Fatalf("counters = %+v", res.Counters)
	}
	out := readOutputs(t, fs, "/out")
	want := map[string]string{"the": "3", "fox": "2", "quick": "1", "brown": "1", "lazy": "1", "dog": "1"}
	for word, count := range want {
		if !strings.Contains(out, word+"\t"+count) {
			t.Fatalf("output missing %q=%s:\n%s", word, count, out)
		}
	}
}

// TestConfigSurface pins Config's fields. The admission rule for a new
// one (see core's TestOptionsSurface): a non-test setter with a second
// value in use — otherwise it is a constant at its use site, as the
// jobtracker's node and the slot counts are.
func TestConfigSurface(t *testing.T) {
	typ := reflect.TypeOf(Config{})
	var got []string
	for i := 0; i < typ.NumField(); i++ {
		got = append(got, typ.Field(i).Name)
	}
	if want := []string{"WorkerNodes", "NewFS"}; !slices.Equal(got, want) {
		t.Errorf("Config has fields %v, want exactly %v", got, want)
	}
}

func TestWordCountOnBSFS(t *testing.T) { testWordCount(t, newBSFSEnv(t, 256)) }
func TestWordCountOnHDFS(t *testing.T) { testWordCount(t, newHDFSEnv(t, 256)) }

func TestSplitBoundariesDontDuplicateRecords(t *testing.T) {
	// Lines straddling block boundaries must be processed exactly once
	// (Hadoop's record-boundary convention). Use a tiny block size so
	// many lines straddle.
	te := newBSFSEnv(t, 128)
	mr := newMR(t, te)
	fs := te.newFS(0)
	var sb strings.Builder
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&sb, "line-%04d with some padding text\n", i)
	}
	putFile(t, fs, "/in/lines", sb.String())
	// Identity map emitting one pair per line; single reducer counts.
	seen := 0
	job := JobConfig{
		Name:       "count-lines",
		Input:      []string{"/in/lines"},
		OutputDir:  "/out",
		NumReduces: 1,
		Map: func(off int64, rec []byte, emit EmitFunc) error {
			emit([]byte(rec), []byte("1"))
			return nil
		},
		Reduce: func(key []byte, values [][]byte, emit EmitFunc) error {
			seen += len(values)
			if len(values) != 1 {
				return fmt.Errorf("record %q seen %d times", key, len(values))
			}
			return nil
		},
	}
	if _, err := mr.Submit(job); err != nil {
		t.Fatal(err)
	}
	if seen != 200 {
		t.Fatalf("saw %d records, want 200", seen)
	}
}

func TestMapOnlyGeneratorJob(t *testing.T) {
	te := newBSFSEnv(t, 256)
	mr := newMR(t, te)
	fs := te.newFS(0)
	job := JobConfig{
		Name:      "gen",
		OutputDir: "/gen",
		NumMaps:   5,
		Generate: func(task int, w fsapi.Writer) error {
			_, err := fmt.Fprintf(w, "output-of-task-%d\n", task)
			return err
		},
	}
	res, err := mr.Submit(job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.MapTasks != 5 {
		t.Fatalf("maps = %d", res.Counters.MapTasks)
	}
	infos, _ := fs.List("/gen")
	if len(infos) != 5 {
		t.Fatalf("%d output files", len(infos))
	}
	for i := 0; i < 5; i++ {
		got := readAll(t, fs, fmt.Sprintf("/gen/part-m-%05d", i))
		if got != fmt.Sprintf("output-of-task-%d\n", i) {
			t.Fatalf("part %d = %q", i, got)
		}
	}
}

func TestDirectoryInput(t *testing.T) {
	te := newBSFSEnv(t, 256)
	mr := newMR(t, te)
	fs := te.newFS(0)
	putFile(t, fs, "/multi/a", "alpha\n")
	putFile(t, fs, "/multi/b", "beta\n")
	putFile(t, fs, "/multi/c", "gamma\n")
	job := wordCountJob("/multi", "/out", 1)
	job.Input = []string{"/multi"}
	res, err := mr.Submit(job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.MapTasks != 3 {
		t.Fatalf("maps = %d, want 3 (one per file)", res.Counters.MapTasks)
	}
	out := readOutputs(t, fs, "/out")
	for _, w := range []string{"alpha", "beta", "gamma"} {
		if !strings.Contains(out, w+"\t1") {
			t.Fatalf("missing %s in %q", w, out)
		}
	}
}

func TestTaskRetrySucceeds(t *testing.T) {
	te := newBSFSEnv(t, 256)
	mr := newMR(t, te)
	fs := te.newFS(0)
	putFile(t, fs, "/in/f", "data here\n")
	failures := 0
	job := wordCountJob("/in/f", "/out", 1)
	job.faultInjector = func(kind taskKind, task, attempt int) error {
		if kind == mapTask && attempt == 0 {
			failures++
			return errors.New("injected fault")
		}
		return nil
	}
	res, err := mr.Submit(job)
	if err != nil {
		t.Fatal(err)
	}
	if failures == 0 || res.Counters.FailedTasks != failures {
		t.Fatalf("failures = %d, counters = %+v", failures, res.Counters)
	}
	if !strings.Contains(readOutputs(t, fs, "/out"), "data\t1") {
		t.Fatal("output incomplete after retry")
	}
}

func TestTaskFailsAfterMaxAttempts(t *testing.T) {
	te := newBSFSEnv(t, 256)
	mr := newMR(t, te)
	fs := te.newFS(0)
	putFile(t, fs, "/in/f", "x\n")
	job := wordCountJob("/in/f", "/out", 1)
	job.faultInjector = func(kind taskKind, task, attempt int) error {
		if kind == mapTask {
			return errors.New("always fails")
		}
		return nil
	}
	if _, err := mr.Submit(job); err == nil {
		t.Fatal("job with permanently failing task succeeded")
	}
}

// TestReduceFailureRetries fails a reduce twice: attempt 0 before it
// starts, attempt 1 after it has written part of its attempt-private
// file. Attempt 2 commits, and no .attempt-N file is left behind.
func TestReduceFailureRetries(t *testing.T) {
	te := newBSFSEnv(t, 256)
	mr := newMR(t, te)
	fs := te.newFS(0)
	putFile(t, fs, "/in/f", "k v\n")
	job := wordCountJob("/in/f", "/out", 1)
	job.faultInjector = func(kind taskKind, task, attempt int) error {
		if kind == reduceTask && attempt == 0 {
			return errors.New("reduce hiccup")
		}
		return nil
	}
	reduce, calls := job.Reduce, 0
	job.Reduce = func(key []byte, values [][]byte, emit EmitFunc) error {
		if calls++; calls == 1 {
			emit(key, []byte("partial"))
			return errors.New("reduce fails mid-output")
		}
		return reduce(key, values, emit)
	}
	res, err := mr.Submit(job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.FailedTasks != 2 {
		t.Fatalf("FailedTasks = %d, want 2", res.Counters.FailedTasks)
	}
	infos, err := fs.List("/out")
	if err != nil {
		t.Fatal(err)
	}
	for _, fi := range infos {
		if strings.Contains(fi.Path, ".attempt-") {
			t.Errorf("attempt-private file left behind: %s", fi.Path)
		}
	}
	if out := readOutputs(t, fs, "/out"); !strings.Contains(out, "k\t1") || strings.Contains(out, "partial") {
		t.Fatalf("reduce retry output %q, want k\t1 and no partial output", out)
	}
}

func TestLocalityCounters(t *testing.T) {
	te := newBSFSEnv(t, 256)
	mr := newMR(t, te)
	fs := te.newFS(1)
	putFile(t, fs, "/in/f", strings.Repeat("word \n", 100))
	res, err := mr.Submit(wordCountJob("/in/f", "/out", 1))
	if err != nil {
		t.Fatal(err)
	}
	total := res.Counters.DataLocal + res.Counters.RackLocal + res.Counters.Remote
	if total != res.Counters.MapTasks {
		t.Fatalf("locality classes %d != maps %d", total, res.Counters.MapTasks)
	}
}

func TestConcurrentJobs(t *testing.T) {
	te := newBSFSEnv(t, 256)
	mr := newMR(t, te)
	fs := te.newFS(0)
	putFile(t, fs, "/in/j1", "one two three\n")
	putFile(t, fs, "/in/j2", "four five six\n")
	errs := make(chan error, 2)
	for i, in := range []string{"/in/j1", "/in/j2"} {
		out := fmt.Sprintf("/out%d", i)
		go func() {
			_, err := mr.Submit(wordCountJob(in, out, 1))
			errs <- err
		}()
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if !strings.Contains(readOutputs(t, fs, "/out0"), "two\t1") {
		t.Fatal("job 0 output wrong")
	}
	if !strings.Contains(readOutputs(t, fs, "/out1"), "five\t1") {
		t.Fatal("job 1 output wrong")
	}
}

func TestSortedReduceOutput(t *testing.T) {
	te := newBSFSEnv(t, 256)
	mr := newMR(t, te)
	fs := te.newFS(0)
	putFile(t, fs, "/in/f", "zebra\napple\nmango\nbanana\n")
	job := JobConfig{
		Name:       "sort",
		Input:      []string{"/in/f"},
		OutputDir:  "/out",
		NumReduces: 1,
		Map: func(off int64, rec []byte, emit EmitFunc) error {
			emit(append([]byte(nil), rec...), []byte(""))
			return nil
		},
	}
	if _, err := mr.Submit(job); err != nil {
		t.Fatal(err)
	}
	out := readOutputs(t, fs, "/out")
	var keys []string
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		keys = append(keys, strings.SplitN(line, "\t", 2)[0])
	}
	if !sort.StringsAreSorted(keys) {
		t.Fatalf("reduce output not sorted: %v", keys)
	}
}

func TestValidationErrors(t *testing.T) {
	te := newBSFSEnv(t, 256)
	mr := newMR(t, te)
	if _, err := mr.Submit(JobConfig{Name: "no-input"}); err == nil {
		t.Fatal("job without input or NumMaps accepted")
	}
	if _, err := mr.Submit(JobConfig{Name: "bad-input", Input: []string{"/missing"}}); err == nil {
		t.Fatal("job with missing input accepted")
	}
	if _, err := NewCluster(te.env, Config{}); err == nil {
		t.Fatal("cluster without workers accepted")
	}
}

// simMR builds a simulated BSFS + MapReduce stack: providers and
// tasktrackers on nodes 1..nodes-1, the jobtracker on node 0.
func simMR(t *testing.T, nodes int) (*sim.Engine, *cluster.Sim, *Cluster) {
	t.Helper()
	eng := sim.NewEngine()
	env := cluster.NewSim(simnet.New(eng, simnet.Grid5000(nodes)))
	provs := make([]cluster.NodeID, nodes-1)
	for i := range provs {
		provs[i] = cluster.NodeID(i + 1)
	}
	dep, err := core.NewDeployment(env, core.Options{PageSize: 64 << 10, ProviderNodes: provs})
	if err != nil {
		t.Fatal(err)
	}
	svc := bsfs.NewService(dep, bsfs.Config{BlockSize: 1 << 20})
	mr, err := NewCluster(env, Config{
		WorkerNodes: provs,
		NewFS:       func(n cluster.NodeID) fsapi.FileSystem { return svc.NewFS(n) },
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng, env, mr
}

func TestWithoutSpeculationStragglerDominates(t *testing.T) {
	eng, env, mr := simMR(t, 12)
	const straggle = 60 * time.Second
	var completion time.Duration
	eng.Go(func() {
		job := JobConfig{
			Name:      "straggler-no-spec",
			OutputDir: "/out",
			NumMaps:   4,
			Synthetic: true,
			Profile:   Profile{GenerateBytesPerMap: 1 << 20},
			faultInjector: func(kind taskKind, task, attempt int) error {
				if kind == mapTask && task == 0 && attempt == 0 {
					env.Sleep(straggle)
				}
				return nil
			},
		}
		res, err := mr.Submit(job)
		if err != nil {
			t.Error(err)
			return
		}
		completion = res.Duration
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if completion < straggle {
		t.Fatalf("job took %v < straggler %v without speculation?", completion, straggle)
	}
}

// TestFailedMapAttemptLeavesNoAttemptFile: a map attempt that dies
// halfway through its output counts as one failed task, its
// attempt-private file is deleted, and the retry commits a full part
// file — the output directory holds exactly the committed parts.
func TestFailedMapAttemptLeavesNoAttemptFile(t *testing.T) {
	const perMap = int64(8 << 20)
	eng, _, mr := simMR(t, 12)
	var task2Calls atomic.Int32
	eng.Go(func() {
		job := JobConfig{
			Name:      "half-written",
			OutputDir: "/half",
			NumMaps:   4,
			Generate: func(task int, w fsapi.Writer) error {
				if task == 2 && task2Calls.Add(1) == 1 {
					if _, err := w.WriteSynthetic(perMap / 2); err != nil {
						return err
					}
					return errors.New("map dies mid-output")
				}
				_, err := w.WriteSynthetic(perMap)
				return err
			},
		}
		res, err := mr.Submit(job)
		if err != nil {
			t.Error(err)
			return
		}
		if res.Counters.FailedTasks != 1 {
			t.Errorf("FailedTasks = %d, want 1", res.Counters.FailedTasks)
		}
		infos, err := mr.cfg.NewFS(0).List("/half")
		if err != nil {
			t.Error(err)
			return
		}
		var parts int
		for _, fi := range infos {
			if strings.Contains(fi.Path, ".attempt-") {
				t.Errorf("attempt-private file left behind: %s", fi.Path)
				continue
			}
			parts++
			if fi.Size != perMap {
				t.Errorf("%s has %d bytes, want %d", fi.Path, fi.Size, perMap)
			}
		}
		if parts != 4 {
			t.Errorf("%d part files, want 4", parts)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMapReduceOverSimulatedClusterEndToEnd(t *testing.T) {
	// Full-stack smoke: a reduce job with real shuffle volumes over the
	// simulated fabric.
	eng, _, mr := simMR(t, 20)
	eng.Go(func() {
		job := JobConfig{
			Name:       "synthetic-shuffle",
			OutputDir:  "/out",
			NumMaps:    10,
			NumReduces: 4,
			Synthetic:  true,
			Profile: Profile{
				GenerateBytesPerMap: 32 << 20,
			},
		}
		res, err := mr.Submit(job)
		if err != nil {
			t.Error(err)
			return
		}
		if res.Counters.OutputBytes != 10*32<<20 {
			t.Errorf("output = %d", res.Counters.OutputBytes)
		}
		if res.Duration <= 0 {
			t.Error("no virtual time elapsed")
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}
