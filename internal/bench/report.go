// report.go renders experiment results as the tables/series the paper
// reports.

package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"text/tabwriter"
	"time"
)

// recorder tees an experiment's rendered output while capturing the
// structured results behind it. RunExperiments passes one as the writer
// to Experiment.run: writePointsTable feeds it every sweep point, and
// experiments with scalar results (e4, e5, x2-x8, a6, a7) record named
// metrics. wall takes what a run measures in wall-clock time, which is
// not a function of the program, so w stays one.
type recorder struct {
	io.Writer
	wall    io.Writer
	points  []point
	metrics []Metric
}

// RunExperiments runs exps in order at opts, rendering each one's
// tables to w and its wall-clock timings (X7's log replay) to wall, and
// returns what each recorded: the one loop behind bsfs-bench and the
// golden test. It stops at the first experiment that fails.
func RunExperiments(w, wall io.Writer, opts SweepOpts, exps []Experiment) ([]ExperimentResult, error) {
	var results []ExperimentResult
	for _, e := range exps {
		fmt.Fprintf(w, "\n--- %s ---\n", e.Title)
		rec := &recorder{Writer: w, wall: wall}
		if err := e.run(opts, rec); err != nil {
			return results, fmt.Errorf("%s: %w", e.ID, err)
		}
		results = append(results, newExperimentResult(e, rec))
	}
	return results, nil
}

// Metric is one named scalar result of an experiment.
type Metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit,omitempty"`
	Value float64 `json:"value"`
}

// recordPoints hands structured points to the writer when it is a
// recorder; plain writers just get the rendered table.
func recordPoints(w io.Writer, pts []point) {
	if r, ok := w.(*recorder); ok {
		r.points = append(r.points, pts...)
	}
}

// recordMetric captures one scalar result when the writer is a
// recorder.
func recordMetric(w io.Writer, name, unit string, value float64) {
	if r, ok := w.(*recorder); ok {
		r.metrics = append(r.metrics, Metric{Name: name, Unit: unit, Value: value})
	}
}

// noteWall writes a wall-clock timing to the recorder's wall writer;
// plain writers drop it.
func noteWall(w io.Writer, format string, args ...any) {
	if r, ok := w.(*recorder); ok {
		fmt.Fprintf(r.wall, format, args...)
	}
}

// writePointsTable renders microbenchmark sweep points grouped by
// storage kind, one row per (kind, clients) — the series behind the
// paper's throughput figures.
func writePointsTable(w io.Writer, title string, points []point) {
	recordPoints(w, points)
	fmt.Fprintf(w, "\n== %s ==\n", title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "experiment\tfs\tclients\tper-client MB/s\tmin\tmax\taggregate MB/s\tmakespan\tnet\tdisk")
	for _, p := range points {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%.1f\t%.1f\t%.1f\t%.1f\t%s\t%s\t%s\n",
			p.experiment, p.kind, p.clients, p.perClientMBps, p.minMBps, p.maxMBps, p.aggregateMBps,
			p.duration.Round(timeUnit(p.duration)), size(p.netBytes), size(p.diskBytes))
	}
	tw.Flush()
}

// writeAppTable renders application benchmark results — the paper's
// job completion time comparison — and records each job's time and
// byte counts as metrics.
func writeAppTable(w io.Writer, title string, results []AppResult) {
	for _, r := range results {
		job := r.experiment + "_" + r.kind
		recordMetric(w, job+"_completion", "s", r.Completion.Seconds())
		recordMetric(w, job+"_input", "bytes", float64(r.Counters.InputBytes))
		recordMetric(w, job+"_shuffle", "bytes", float64(r.Counters.ShuffleBytes))
		recordMetric(w, job+"_output", "bytes", float64(r.Counters.OutputBytes))
	}
	fmt.Fprintf(w, "\n== %s ==\n", title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "experiment\tfs\tmaps\tcompletion\tinput\tshuffle\toutput\tlocal/rack/remote")
	for _, r := range results {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%s\t%s\t%s\t%s\t%d/%d/%d\n",
			r.experiment, r.kind, r.maps, r.Completion.Round(timeUnit(r.Completion)),
			size(r.Counters.InputBytes), size(r.Counters.ShuffleBytes), size(r.Counters.OutputBytes),
			r.Counters.DataLocal, r.Counters.RackLocal, r.Counters.Remote)
	}
	tw.Flush()
}

func size(n int64) string {
	switch {
	case n >= GB:
		return fmt.Sprintf("%.1fGB", float64(n)/float64(GB))
	case n >= MB:
		return fmt.Sprintf("%.1fMB", float64(n)/float64(MB))
	case n >= KB:
		return fmt.Sprintf("%.1fKB", float64(n)/float64(KB))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// timeUnit picks a rounding granularity readable at the duration's
// scale.
func timeUnit(d time.Duration) time.Duration {
	if d > 16*time.Minute {
		return time.Second
	}
	return 10 * time.Millisecond
}

// ExperimentResult is one experiment's structured results: identity,
// every rendered sweep point, and any scalar metrics it reported.
type ExperimentResult struct {
	ID      string      `json:"id"`
	Title   string      `json:"title"`
	Points  []pointJSON `json:"points,omitempty"`
	Metrics []Metric    `json:"metrics,omitempty"`
}

// newExperimentResult pairs an experiment's identity with what its
// recorder captured.
func newExperimentResult(e Experiment, r *recorder) ExperimentResult {
	res := ExperimentResult{ID: e.ID, Title: e.Title, Metrics: r.metrics}
	for _, p := range r.points {
		res.Points = append(res.Points, pointJSON{
			Experiment:    p.experiment,
			FS:            p.kind,
			Clients:       p.clients,
			PerClientMBps: p.perClientMBps,
			MinMBps:       p.minMBps,
			MaxMBps:       p.maxMBps,
			AggregateMBps: p.aggregateMBps,
			MakespanSec:   p.duration.Seconds(),
			NetBytes:      p.netBytes,
			DiskBytes:     p.diskBytes,
			P50Ms:         ms(p.p50),
			P90Ms:         ms(p.p90),
			P99Ms:         ms(p.p99),
		})
	}
	return res
}

// pointJSON is point in stable machine-readable form (durations as
// seconds, not nanosecond ints).
type pointJSON struct {
	Experiment    string  `json:"experiment"`
	FS            string  `json:"fs"`
	Clients       int     `json:"clients"`
	PerClientMBps float64 `json:"per_client_mbps"`
	MinMBps       float64 `json:"min_mbps"`
	MaxMBps       float64 `json:"max_mbps"`
	AggregateMBps float64 `json:"aggregate_mbps"`
	MakespanSec   float64 `json:"makespan_s"`
	NetBytes      int64   `json:"net_bytes"`
	DiskBytes     int64   `json:"disk_bytes"`
	// Latency-distribution quantiles of the per-client (or per-op)
	// completion times, in milliseconds; omitted when the experiment
	// recorded no distribution.
	P50Ms float64 `json:"p50_ms,omitempty"`
	P90Ms float64 `json:"p90_ms,omitempty"`
	P99Ms float64 `json:"p99_ms,omitempty"`
}

// ms renders a duration as fractional milliseconds for the JSON schema.
func ms(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}

// resultsFile is the top-level document written by bsfs-bench -json:
// the sweep parameters plus one record per experiment — the
// BENCH_*.json perf-trajectory format.
type resultsFile struct {
	Params      paramsJSON         `json:"params"`
	Experiments []ExperimentResult `json:"experiments"`
}

type paramsJSON struct {
	Clients        []int `json:"clients"`
	BytesPerClient int64 `json:"bytes_per_client"`
	Nodes          int   `json:"nodes"`
	MemCapacity    int64 `json:"mem_capacity"`
	Replication    int   `json:"replication"`
}

// WriteResultsJSON serializes recorded experiment results with the
// sweep parameters that produced them.
func WriteResultsJSON(w io.Writer, opts SweepOpts, exps []ExperimentResult) error {
	doc := resultsFile{
		Params: paramsJSON{
			Clients:        opts.Clients,
			BytesPerClient: opts.BytesPerClient,
			Nodes:          opts.Spec.Nodes,
			MemCapacity:    opts.MemCapacity,
			Replication:    opts.Replication,
		},
		Experiments: exps,
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
