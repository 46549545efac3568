package apps

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bsfs"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fsapi"
	"repro/internal/mapreduce"
)

// newStack builds a Local-env BSFS + MapReduce stack for real-data app
// tests.
func newStack(t *testing.T) (*mapreduce.Cluster, fsapi.FileSystem) {
	t.Helper()
	env := cluster.NewLocal(8, 4)
	dep, err := core.NewDeployment(env, core.Options{
		PageSize:      1 << 10,
		ProviderNodes: []cluster.NodeID{1, 2, 3, 4, 5, 6, 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dep.Close() })
	svc := bsfs.NewService(dep, bsfs.Config{BlockSize: 16 << 10})
	mr, err := mapreduce.NewCluster(env, mapreduce.Config{
		WorkerNodes: []cluster.NodeID{1, 2, 3, 4, 5, 6, 7},
		NewFS:       func(n cluster.NodeID) fsapi.FileSystem { return svc.NewFS(n) },
	})
	if err != nil {
		t.Fatal(err)
	}
	return mr, svc.NewFS(0)
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

func readDir(t *testing.T, fs fsapi.FileSystem, dir string) string {
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

func TestRandomTextWriterGeneratesVocabulary(t *testing.T) {
	mr, fs := newStack(t)
	job := RandomTextWriter("/out", 4, 10<<10, false)
	res, err := mr.Submit(job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.MapTasks != 4 {
		t.Fatalf("maps = %d", res.Counters.MapTasks)
	}
	out := readDir(t, fs, "/out")
	if len(out) < 4*10<<10 {
		t.Fatalf("output %d bytes, want >= %d", len(out), 4*10<<10)
	}
	// Every word comes from the fixed vocabulary.
	words := map[string]bool{}
	for _, w := range Words {
		words[w] = true
	}
	for _, w := range strings.Fields(out) {
		if !words[w] {
			t.Fatalf("unknown word %q in output", w)
		}
	}
	// Deterministic per task: same seed, same text.
	res2, err := mr.Submit(RandomTextWriterNamed("/out2", 4, 10<<10))
	if err != nil {
		t.Fatal(err)
	}
	_ = res2
	if readAll(t, fs, "/out/part-m-00000") != readAll(t, fs, "/out2/part-m-00000") {
		t.Fatal("generator not deterministic per task id")
	}
}

// RandomTextWriterNamed avoids the duplicate-output-dir conflict in the
// determinism check.
func RandomTextWriterNamed(dir string, maps int, bytesPerMap int64) mapreduce.JobConfig {
	return RandomTextWriter(dir, maps, bytesPerMap, false)
}

func TestDistributedGrepFindsAllMatches(t *testing.T) {
	mr, fs := newStack(t)
	w, err := fs.Create("/in/corpus")
	if err != nil {
		t.Fatal(err)
	}
	lines := []string{
		"nothing to see here",
		"the needle is hidden",
		"more hay",
		"another needle appears",
		"hay hay hay",
	}
	w.Write([]byte(strings.Join(lines, "\n") + "\n"))
	w.Close()

	job := DistributedGrep([]string{"/in/corpus"}, "/found", "needle", false)
	if _, err := mr.Submit(job); err != nil {
		t.Fatal(err)
	}
	out := readDir(t, fs, "/found")
	if !strings.Contains(out, "the needle is hidden") || !strings.Contains(out, "another needle appears") {
		t.Fatalf("matches missing:\n%s", out)
	}
	if strings.Contains(out, "hay") {
		t.Fatalf("non-matching lines leaked:\n%s", out)
	}
	if job.NumReduces != 1 {
		t.Fatalf("reduces = %d", job.NumReduces)
	}
	// Offsets in the output are real byte offsets of the lines.
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		parts := strings.SplitN(line, "\t", 2)
		off, err := strconv.Atoi(parts[0])
		if err != nil {
			t.Fatalf("bad offset in %q", line)
		}
		joined := strings.Join(lines, "\n") + "\n"
		if !strings.HasPrefix(joined[off:], parts[1]) {
			t.Fatalf("offset %d does not point at %q", off, parts[1])
		}
	}
}

func TestWordCountExact(t *testing.T) {
	mr, fs := newStack(t)
	w, _ := fs.Create("/in/words")
	w.Write([]byte("a b a\nc b a\n"))
	w.Close()
	if _, err := mr.Submit(WordCount([]string{"/in/words"}, "/counts", 2)); err != nil {
		t.Fatal(err)
	}
	out := readDir(t, fs, "/counts")
	want := map[string]string{"a": "3", "b": "2", "c": "1"}
	for word, count := range want {
		if !strings.Contains(out, word+"\t"+count) {
			t.Fatalf("missing %s=%s in:\n%s", word, count, out)
		}
	}
}

func TestSortProducesSortedRuns(t *testing.T) {
	mr, fs := newStack(t)
	w, _ := fs.Create("/in/unsorted")
	w.Write([]byte("pear\napple\nzucchini\nmango\nberry\n"))
	w.Close()
	if _, err := mr.Submit(Sort([]string{"/in/unsorted"}, "/sorted", 1)); err != nil {
		t.Fatal(err)
	}
	out := readDir(t, fs, "/sorted")
	var keys []string
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		keys = append(keys, strings.SplitN(line, "\t", 2)[0])
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] > keys[i] {
			t.Fatalf("not sorted: %v", keys)
		}
	}
	if len(keys) != 5 {
		t.Fatalf("%d keys, want 5", len(keys))
	}
}

func TestSyntheticGrepProfile(t *testing.T) {
	cfg := SyntheticGrep([]string{"/x"}, "/y")
	if !cfg.Synthetic {
		t.Fatal("SyntheticGrep not synthetic")
	}
	if cfg.Profile.MapOutputRatio <= 0 || cfg.Profile.MapCPUPerMB <= 0 {
		t.Fatalf("profile = %+v", cfg.Profile)
	}
}

// WordCount is the canonical MapReduce example: it validates the full
// map/shuffle/reduce path on real data.
func WordCount(input []string, outputDir string, numReduces int) mapreduce.JobConfig {
	return mapreduce.JobConfig{
		Name:       "wordcount",
		Input:      input,
		OutputDir:  outputDir,
		NumReduces: numReduces,
		Map: func(off int64, record []byte, emit mapreduce.EmitFunc) error {
			for _, w := range bytes.Fields(record) {
				emit(w, []byte("1"))
			}
			return nil
		},
		Reduce: func(key []byte, values [][]byte, emit mapreduce.EmitFunc) error {
			total := 0
			for _, v := range values {
				n, err := strconv.Atoi(string(v))
				if err != nil {
					return fmt.Errorf("wordcount: bad count %q: %w", v, err)
				}
				total += n
			}
			emit(key, []byte(strconv.Itoa(total)))
			return nil
		},
	}
}

// Sort globally sorts line records by their content: maps emit the
// line as key, reducers write keys in order (partitioned sort, one
// sorted file per reducer).
func Sort(input []string, outputDir string, numReduces int) mapreduce.JobConfig {
	return mapreduce.JobConfig{
		Name:       "sort",
		Input:      input,
		OutputDir:  outputDir,
		NumReduces: numReduces,
		Synthetic:  false,
		Profile: mapreduce.Profile{
			MapOutputRatio:    1.0,
			ReduceOutputRatio: 1.0,
		},
		Map: func(off int64, record []byte, emit mapreduce.EmitFunc) error {
			emit(append([]byte(nil), record...), []byte{})
			return nil
		},
		Reduce: func(key []byte, values [][]byte, emit mapreduce.EmitFunc) error {
			for range values {
				emit(key, []byte{})
			}
			return nil
		},
	}
}
