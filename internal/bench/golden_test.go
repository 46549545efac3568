package bench

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite BENCH_sim.json and RESULTS.md, or BENCH_counts.json, from this run")

const (
	goldenPath  = "../../BENCH_sim.json"
	resultsPath = "../../RESULTS.md"
)

// goldenOpts is the golden's shape: bsfs-bench -exp all -nodes 60
// -clients 1,4,16 -size 64 -cache 48, at the default -replicas 1.
var goldenOpts = SweepOpts{Clients: []int{1, 4, 16}, BytesPerClient: 64 * MB,
	Spec: ClusterSpec{Nodes: 60}, MemCapacity: 48 * MB, Replication: 1}

var golden struct {
	once sync.Once
	raw  []byte
	doc  *resultsFile
	err  error
	left int // goroutines the run left behind
}

// goldenRun runs every experiment at goldenOpts through RunExperiments,
// once per test binary, and returns the bytes bsfs-bench -json writes
// for that run, and their parse. It also counts the goroutines the run
// leaves behind, polling for up to 10 s for them to exit.
func goldenRun(t *testing.T) ([]byte, *resultsFile) {
	t.Helper()
	golden.once.Do(func() {
		before := runtime.NumGoroutine()
		res, err := RunExperiments(io.Discard, io.Discard, goldenOpts, Experiments)
		for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
			time.Sleep(5 * time.Millisecond)
		}
		golden.left = runtime.NumGoroutine() - before
		var b bytes.Buffer
		if err == nil {
			err = WriteResultsJSON(&b, goldenOpts, res)
		}
		golden.raw, golden.doc = b.Bytes(), new(resultsFile)
		if golden.err = err; err == nil {
			golden.err = json.Unmarshal(golden.raw, golden.doc)
		}
	})
	if golden.err != nil {
		t.Fatal(golden.err)
	}
	return golden.raw, golden.doc
}

// readGolden reads and parses the committed golden.
func readGolden(t *testing.T) ([]byte, *resultsFile) {
	t.Helper()
	raw, err := os.ReadFile(goldenPath)
	doc := new(resultsFile)
	if err == nil {
		err = json.Unmarshal(raw, doc)
	}
	if err != nil {
		t.Fatal(err)
	}
	return raw, doc
}

// TestGolden pins every experiment's output: this run's -json bytes
// must equal BENCH_sim.json, and RESULTS.md must be their rendering. On
// a mismatch it lists every value that moved. A model change rewrites
// both files with -update and pastes that list into CHANGES.md. Every
// simulation ends what it started, so the run leaves no goroutine.
func TestGolden(t *testing.T) {
	raw, doc := goldenRun(t)
	if golden.left > 0 {
		t.Errorf("the run left %d goroutines behind", golden.left)
	}
	md := renderResults(doc)
	if *update {
		for path, b := range map[string][]byte{goldenPath: raw, resultsPath: md} {
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	if old, _ := readGolden(t); !bytes.Equal(raw, old) {
		t.Errorf("this run differs from %s (-update rewrites it):\n%s", goldenPath, drift(old, raw))
	}
	if old, _ := os.ReadFile(resultsPath); !bytes.Equal(md, old) {
		t.Errorf("%s is not this run's rendering (-update rewrites it)", resultsPath)
	}
}

// drift lists every number that differs between two results documents,
// keyed by experiment, point or metric, and field: old value, new value
// and relative change.
func drift(oldRaw, newRaw []byte) string {
	old, cur := flatten(oldRaw), flatten(newRaw)
	var lines []string
	for k, v := range cur {
		if o, ok := old[k]; !ok {
			lines = append(lines, fmt.Sprintf("%s: added, %v", k, v))
		} else if o != v {
			lines = append(lines, fmt.Sprintf("%s: %v -> %v (%+.3g%%)", k, o, v, 100*(v-o)/o))
		}
	}
	for k, o := range old {
		if _, ok := cur[k]; !ok {
			lines = append(lines, fmt.Sprintf("%s: removed, was %v", k, o))
		}
	}
	if len(lines) == 0 {
		return "no number moved; the bytes differ in layout"
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// flatten keys every number of a results document "id point/fs/clients
// field" or "id metric".
func flatten(raw []byte) map[string]float64 {
	var doc struct {
		Experiments []struct {
			ID      string
			Points  []map[string]any
			Metrics []Metric
		}
	}
	_ = json.Unmarshal(raw, &doc) // both documents drift compares have parsed once already
	out := map[string]float64{}
	for _, e := range doc.Experiments {
		for _, p := range e.Points {
			for k, v := range p {
				if f, ok := v.(float64); ok {
					out[fmt.Sprintf("%s %v/%v/%v %s", e.ID, p["experiment"], p["fs"], p["clients"], k)] = f
				}
			}
		}
		for _, m := range e.Metrics {
			out[e.ID+" "+m.Name] = m.Value
		}
	}
	return out
}

// renderResults renders RESULTS.md from a results document: the claims
// table with each row's verdict and the numbers it read, then every
// experiment's points and metrics.
func renderResults(doc *resultsFile) []byte {
	var b bytes.Buffer
	p := doc.Params
	fmt.Fprintf(&b, "<!-- Generated from BENCH_sim.json by `go test ./internal/bench -run TestGolden -update`. Do not edit. -->\n\n")
	fmt.Fprintf(&b, "# Results\n\nEvery experiment at %d nodes, %v clients, %s per client, %s node caches and replication %d, in virtual time.\n\n",
		p.Nodes, p.Clients, size(p.BytesPerClient), size(p.MemCapacity), p.Replication)
	b.WriteString("## Claims\n\nEach row is checked by the test it names, from `internal/bench/claims_test.go`.\n\n")
	b.WriteString("| test | paper | claim | numbers read | verdict |\n|---|---|---|---|---|\n")
	for _, c := range claims {
		read, ok := c.eval(doc)
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s | %s |\n", c.test, c.sec, c.text, read, map[bool]string{true: "holds", false: "**fails**"}[ok])
	}
	for _, e := range doc.Experiments {
		fmt.Fprintf(&b, "\n## %s\n", e.Title)
		if len(e.Points) > 0 {
			b.WriteString("\n| point | fs | clients | per-client MB/s | min | max | aggregate MB/s | makespan s | net | disk | p50 ms | p90 ms | p99 ms |\n")
			b.WriteString("|---|---|--:|--:|--:|--:|--:|--:|--:|--:|--:|--:|--:|\n")
			for _, p := range e.Points {
				fmt.Fprintf(&b, "| %s | %s | %d | %.1f | %.1f | %.1f | %.1f | %.3f | %s | %s | %.4g | %.4g | %.4g |\n",
					p.Experiment, p.FS, p.Clients, p.PerClientMBps, p.MinMBps, p.MaxMBps, p.AggregateMBps, p.MakespanSec,
					size(p.NetBytes), size(p.DiskBytes), p.P50Ms, p.P90Ms, p.P99Ms)
			}
		}
		if len(e.Metrics) > 0 {
			b.WriteString("\n| metric | value | unit |\n|---|--:|---|\n")
			for _, m := range e.Metrics {
				fmt.Fprintf(&b, "| %s | %.6g | %s |\n", m.Name, m.Value, m.Unit)
			}
		}
	}
	return b.Bytes()
}
