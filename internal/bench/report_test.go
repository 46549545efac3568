package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func samplePoints() []point {
	return []point{
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
	if _, ok := FindExperiment("nope"); ok {
		t.Fatal("bogus experiment found")
	}
	// Every registry entry has an id, title and runner, and its id finds it.
	for _, e := range Experiments {
		if got, ok := FindExperiment(e.ID); !ok || got.Title != e.Title || e.run == nil {
			t.Fatalf("experiment %q: found %v, registered %+v", e.ID, ok, e)
		}
	}
}

// TestAppExperimentsRecordMetrics checks its rows of the claims table:
// the application benchmarks record each job's byte counts for -json.
func TestAppExperimentsRecordMetrics(t *testing.T) { checkClaims(t) }

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

// TestWriteResultsJSON checks the schema loses nothing: the parsed
// golden, written back with its own parameters, is the same bytes.
func TestWriteResultsJSON(t *testing.T) {
	raw, doc := readGolden(t)
	p := doc.Params
	opts := SweepOpts{Clients: p.Clients, BytesPerClient: p.BytesPerClient, Spec: ClusterSpec{Nodes: p.Nodes},
		MemCapacity: p.MemCapacity, Replication: p.Replication}
	var b bytes.Buffer
	if err := WriteResultsJSON(&b, opts, doc.Experiments); err != nil || !bytes.Equal(b.Bytes(), raw) {
		t.Fatalf("re-encoding %s changes it (%v)", goldenPath, err)
	}
}

// TestRecorderTees checks a recorder passes rendered output through to
// the wrapped writer while it captures the points and metrics behind it.
func TestRecorderTees(t *testing.T) {
	var sb strings.Builder
	rec := &recorder{Writer: &sb}
	writePointsTable(rec, "E3", samplePoints())
	recordMetric(rec, "publish_rate_n50", "versions/s", 812.5)
	if !strings.Contains(sb.String(), "== E3 ==") || len(rec.points) != 2 || len(rec.metrics) != 1 {
		t.Fatalf("recorder kept %d points and %d metrics, and wrote:\n%s", len(rec.points), len(rec.metrics), sb.String())
	}
}
