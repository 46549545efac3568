package bench

import (
	"encoding/json"
	"io"
	"strings"
	"testing"
	"time"
)

func samplePoints() []Point {
	return []Point{
		{experiment: "E3-write-distinct", kind: "bsfs", clients: 50, perClientMBps: 124.2, minMBps: 124.1, maxMBps: 124.8, aggregateMBps: 6204.8, duration: 8250 * time.Millisecond},
		{experiment: "E3-write-distinct", kind: "hdfs", clients: 50, perClientMBps: 59.9, minMBps: 59.9, maxMBps: 60.0, aggregateMBps: 2996.8, duration: 17080 * time.Millisecond},
	}
}

func TestWritePointsTable(t *testing.T) {
	var sb strings.Builder
	writePointsTable(&sb, "E3", samplePoints())
	out := sb.String()
	for _, want := range []string{"== E3 ==", "bsfs", "hdfs", "124.2", "59.9", "clients"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // title + header + 2 rows
		t.Fatalf("table has %d lines:\n%s", len(lines), out)
	}
}

func TestWritePointsCSV(t *testing.T) {
	var sb strings.Builder
	WritePointsCSV(&sb, samplePoints())
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "experiment,fs,clients") {
		t.Fatalf("csv header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "E3-write-distinct,bsfs,50,124.20") {
		t.Fatalf("csv row = %q", lines[1])
	}
}

func TestWriteAppTable(t *testing.T) {
	var sb strings.Builder
	writeAppTable(&sb, "E4", []AppResult{{
		experiment: "E4-random-text-writer",
		kind:       "bsfs",
		maps:       250,
		Completion: 24480 * time.Millisecond,
	}})
	out := sb.String()
	for _, want := range []string{"E4-random-text-writer", "bsfs", "250", "24.48s"} {
		if !strings.Contains(out, want) {
			t.Fatalf("app table missing %q:\n%s", want, out)
		}
	}
}

func TestSizeFormatting(t *testing.T) {
	cases := map[int64]string{
		512:           "512B",
		2 * KB:        "2.0KB",
		3 * MB:        "3.0MB",
		5 * GB:        "5.0GB",
		1536 * MB / 1: "1.5GB",
	}
	for n, want := range cases {
		if got := size(n); got != want {
			t.Errorf("size(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestSummarizeStatistics(t *testing.T) {
	durations := []time.Duration{time.Second, 2 * time.Second, 4 * time.Second}
	p := summarize("x", "bsfs", 100*MB, durations, 4*time.Second)
	if p.clients != 3 {
		t.Fatalf("clients = %d", p.clients)
	}
	// Throughputs: 100, 50, 25 MB/s -> mean 58.33, min 25, max 100.
	if p.maxMBps != 100 || p.minMBps != 25 {
		t.Fatalf("min/max = %f/%f", p.minMBps, p.maxMBps)
	}
	if p.perClientMBps < 58 || p.perClientMBps > 59 {
		t.Fatalf("mean = %f", p.perClientMBps)
	}
	if p.aggregateMBps != 75 { // 300 MB over 4 s
		t.Fatalf("aggregate = %f", p.aggregateMBps)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	p := summarize("x", "bsfs", 1, nil, 0)
	if p.clients != 0 || p.perClientMBps != 0 {
		t.Fatalf("empty summary = %+v", p)
	}
}

func TestFindExperiment(t *testing.T) {
	if _, ok := FindExperiment("e1"); !ok {
		t.Fatal("e1 not registered")
	}
	if _, ok := FindExperiment("nope"); ok {
		t.Fatal("bogus experiment found")
	}
	// Every registry entry has an id, title and runner.
	ids := map[string]bool{}
	for _, e := range Experiments {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("incomplete experiment %+v", e)
		}
		if ids[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		ids[e.ID] = true
	}
	for _, want := range []string{"e1", "e2", "e3", "e4", "e5", "x1", "x4", "a1", "a2", "a3", "a4"} {
		if !ids[want] {
			t.Fatalf("experiment %s missing from registry", want)
		}
	}
}

// TestAppExperimentsRecordMetrics runs the application benchmarks the way
// bsfs-bench does, through the registry: one map per client at the
// sweep's largest client count, and every job's completion time and
// byte counts recorded for -json.
func TestAppExperimentsRecordMetrics(t *testing.T) {
	opts := SweepOpts{Clients: []int{2, 6}, BytesPerClient: 16 * MB, Spec: ClusterSpec{Nodes: 30, metaNodes: 4}}
	const volume = float64(6 * 16 * MB) // what E4's six maps write and E5's read back
	for id, want := range map[string]map[string]float64{
		"e4": {"E4-random-text-writer_bsfs_output": volume, "E4-random-text-writer_hdfs_output": volume},
		"e5": {"E5-distributed-grep_bsfs_input": volume, "E5-distributed-grep_hdfs_input": volume},
		"x4": {"X4-snapshot-grep-1_bsfs_input": volume / 2, "X4-snapshot-grep-2_bsfs_input": volume},
	} {
		e, _ := FindExperiment(id)
		rec := &Recorder{Writer: io.Discard}
		if err := e.Run(opts, rec); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		got := map[string]float64{}
		for _, m := range rec.metrics {
			got[m.Name] = m.Value
		}
		// Each job records its completion time and three byte counts.
		if len(got) != 4*len(want) {
			t.Errorf("%s recorded %d metrics, want %d: %v", id, len(got), 4*len(want), got)
		}
		for name, bytes := range want {
			if got[name] != bytes {
				t.Errorf("%s: %s = %v, want %v", id, name, got[name], bytes)
			}
			if job := name[:strings.LastIndex(name, "_")]; got[job+"_completion"] <= 0 {
				t.Errorf("%s: %s_completion = %v s", id, job, got[job+"_completion"])
			}
		}
	}
}

func TestTestbedValidation(t *testing.T) {
	if _, err := NewTestbed(ClusterSpec{Nodes: 10}, StorageOpts{Kind: "ceph"}); err == nil {
		t.Fatal("unknown storage kind accepted")
	}
}

func TestClientNodeSpread(t *testing.T) {
	tb, err := NewTestbed(ClusterSpec{Nodes: 61, metaNodes: 8}, StorageOpts{Kind: "bsfs"})
	if err != nil {
		t.Fatal(err)
	}
	nodes := tb.clientNodes(30)
	seen := map[int]bool{}
	for _, n := range nodes {
		if n < 1 || int(n) > 60 {
			t.Fatalf("client on node %d", n)
		}
		seen[tb.Net.Rack(n)] = true
	}
	if len(seen) < 2 {
		t.Fatal("clients not spread over racks")
	}
	// Loaders are never the readers themselves.
	for _, c := range nodes {
		if tb.loaderNode(c) == c {
			t.Fatalf("loader == reader for node %d", c)
		}
	}
}

func TestWriteResultsJSON(t *testing.T) {
	rec := &Recorder{Writer: io.Discard}
	writePointsTable(rec, "E3", samplePoints())
	recordMetric(rec, "publish_rate_n50", "versions/s", 812.5)
	if len(rec.Points) != 2 || len(rec.metrics) != 1 {
		t.Fatalf("recorder captured %d points, %d metrics", len(rec.Points), len(rec.metrics))
	}
	e, _ := FindExperiment("e3")
	var sb strings.Builder
	err := WriteResultsJSON(&sb, SweepOpts{Clients: []int{50}, Spec: ClusterSpec{Nodes: 90}},
		[]ExperimentResult{NewExperimentResult(e, rec)})
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Params struct {
			Clients []int `json:"clients"`
			Nodes   int   `json:"nodes"`
		} `json:"params"`
		Experiments []struct {
			ID     string `json:"id"`
			Points []struct {
				FS          string  `json:"fs"`
				MakespanSec float64 `json:"makespan_s"`
			} `json:"points"`
			Metrics []Metric `json:"metrics"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, sb.String())
	}
	if doc.Params.Nodes != 90 || len(doc.Params.Clients) != 1 {
		t.Fatalf("params = %+v", doc.Params)
	}
	if len(doc.Experiments) != 1 || doc.Experiments[0].ID != "e3" {
		t.Fatalf("experiments = %+v", doc.Experiments)
	}
	got := doc.Experiments[0]
	if len(got.Points) != 2 || got.Points[0].FS != "bsfs" || got.Points[0].MakespanSec != 8.25 {
		t.Fatalf("points = %+v", got.Points)
	}
	if len(got.Metrics) != 1 || got.Metrics[0].Name != "publish_rate_n50" || got.Metrics[0].Value != 812.5 {
		t.Fatalf("metrics = %+v", got.Metrics)
	}
}

// Recorder passes rendered output through to the wrapped writer.
func TestRecorderTees(t *testing.T) {
	var sb strings.Builder
	rec := &Recorder{Writer: &sb}
	writePointsTable(rec, "E3", samplePoints())
	if !strings.Contains(sb.String(), "== E3 ==") {
		t.Fatalf("recorder swallowed output:\n%s", sb.String())
	}
}
