// Command bsfs-perf is the repository's benchmark: four workloads that
// drive the system through its public functions from one process with
// two client goroutines, check that what was read is what was written,
// and print every metric by name with its unit. BENCHMARK.json at the
// repository root declares the workloads and metrics; README.md beside
// this file defines them and records how the bounds were set.
//
// Usage (run.sh builds the binary inside the checkout and passes its
// arguments on):
//
//	bsfs-perf [-workload NAME|all] [-seed N] [-seconds S] [-trace 0|1] [-scratch DIR]
//
// With -trace 0 a workload prints the end-to-end metrics, measured with
// tracing off. With -trace 1 it runs a separate traced pass of the
// workload plus the layer staircase, prints the per-layer metrics and
// writes the spans to trace-WORKLOAD.json in the scratch directory. The
// last line of standard output is one JSON object; progress goes to
// standard error. The exit code is non-zero when any operation failed or
// any read differed from what was written.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// workload is one entry of the benchmark, in BENCHMARK.json's order.
type workload struct {
	name string
	run  func(cfg *config, r *result) error
}

var workloads = []workload{
	{"tcp-files", runTCPFiles},
	{"shared-append", runSharedAppend},
	{"mixed-rw", runMixedRW},
	{"sim-paper", runSimPaper},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil)) }

// run is the command: it returns the exit code. tweak, when not nil,
// adjusts each workload's configuration before it runs (the self-test
// shrinks the sizes and corrupts reads through it).
func run(args []string, stdout, stderr io.Writer, tweak func(*config)) int {
	fs := flag.NewFlagSet("bsfs-perf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "all", "workload to run: tcp-files, shared-append, mixed-rw, sim-paper, or all")
		seed    = fs.Int64("seed", 1, "seed for payload bytes, file order, offsets and versions")
		seconds = fs.Float64("seconds", nominalSeconds, "how many seconds of timed phases to run: sets the number of fixed-work rounds")
		trace   = fs.Int("trace", 0, "1 = traced run: per-layer metrics and trace-WORKLOAD.json in the scratch directory instead of end-to-end metrics")
		scratch = fs.String("scratch", filepath.Join(".bench_build", "run"), "directory for store files and span files, inside the checkout")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fs.Usage()
		return 2
	}
	var selected []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "bsfs-perf: unknown workload %q\n", *name)
		return 2
	}
	// One scratch directory per process, so concurrent runs in one
	// checkout do not delete each other's store files.
	dir := filepath.Join(*scratch, fmt.Sprintf("p%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(stderr, "bsfs-perf: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	fmt.Fprintf(stderr, "bsfs-perf: store files under %s\n", dir)
	exit := 0
	for _, w := range selected {
		cfg := &config{
			seed:    *seed,
			seconds: *seconds,
			sizes:   fullSizes,
			scratch: dir,
			logf: func(format string, args ...any) {
				fmt.Fprintf(stderr, format+"\n", args...)
			},
		}
		if *trace == 1 {
			cfg.rec = newRecorder(1 << 18)
		}
		if tweak != nil {
			tweak(cfg)
		}
		r, err := runWorkload(cfg, w)
		if err != nil {
			fmt.Fprintf(stderr, "bsfs-perf: %v\n", err)
			return 1
		}
		if cfg.rec != nil {
			spans := filepath.Join(*scratch, "trace-"+w.name+".json")
			if err := cfg.rec.writeFile(spans); err != nil {
				fmt.Fprintf(stderr, "bsfs-perf: %v\n", err)
				return 1
			}
			fmt.Fprintf(stderr, "bsfs-perf: %d spans written to %s\n", cfg.rec.len(), spans)
		}
		if err := printResult(r, stdout, stderr); err != nil {
			fmt.Fprintf(stderr, "bsfs-perf: %v\n", err)
			return 1
		}
		if r.failed > 0 {
			exit = 1
		}
	}
	return exit
}

// runWorkload runs one workload: the end-to-end pass with tracing off,
// or the traced pass followed by the layer staircase.
func runWorkload(cfg *config, w workload) (*result, error) {
	r := newResult(w.name)
	if cfg.rec != nil {
		// The traced pass gets half the time; the staircase, whose
		// work is fixed, takes about the other half.
		cfg.seconds /= 2
	}
	if err := w.run(cfg, r); err != nil {
		return nil, err
	}
	if cfg.rec != nil {
		if err := runLayers(cfg, r); err != nil {
			return nil, err
		}
		r.set("client.ops_attempted", float64(r.attempted), "count")
		r.set("client.ops_failed", float64(r.failed), "count")
	}
	if r.attempted < 1 {
		return nil, fmt.Errorf("%s: no operation was attempted", w.name)
	}
	return r, nil
}

// printResult prints the metrics for people, one per line, to stderr
// and the contract's JSON object as one line on stdout.
func printResult(r *result, stdout, stderr io.Writer) error {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Fprintf(stderr, "%-14s %-32s %14.6g %-8s %s\n", r.workload, n, m.Value, m.Unit, r.notes[n])
	}
	fmt.Fprintf(stderr, "%-14s ops attempted %d, failed %d\n", r.workload, r.attempted, r.failed)
	if r.firstErr != "" {
		fmt.Fprintf(stderr, "%-14s first failure: %s\n", r.workload, r.firstErr)
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, r.metrics}
	line, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("%s: a metric has no value: %w", r.workload, err)
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}
