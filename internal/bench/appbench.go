// appbench.go runs the paper's §IV.C application benchmarks: real
// MapReduce jobs through the framework, measuring job completion time
// with BSFS versus HDFS underneath — the paper's end-to-end claim.

package bench

import (
	"fmt"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/fsapi"
	"repro/internal/mapreduce"
)

// AppOpts parameterizes an application benchmark.
type AppOpts struct {
	// Maps is the number of map tasks (the paper runs one writer per
	// node for Random Text Writer).
	Maps int
	// BytesPerMap is the volume each Random Text Writer map produces,
	// or the input volume behind each Distributed Grep map.
	BytesPerMap int64
	Storage     StorageOpts
	Spec        ClusterSpec
}

// AppResult is one application benchmark measurement.
type AppResult struct {
	experiment string
	kind       string
	maps       int
	Completion time.Duration
	Counters   mapreduce.Counters
}

// newMRCluster starts the MapReduce framework over the testbed's
// storage.
func newMRCluster(tb *Testbed) (*mapreduce.Cluster, error) {
	return mapreduce.NewCluster(tb.Env, mapreduce.Config{
		WorkerNodes: storageNodes(tb.spec.Nodes),
		NewFS:       tb.NewFS,
	})
}

// runRandomTextWriter is experiment E4: the map-only generator job
// whose access pattern is massively parallel writes to different files.
func runRandomTextWriter(opts AppOpts) (AppResult, error) {
	tb, err := NewTestbed(opts.Spec, opts.Storage)
	if err != nil {
		return AppResult{}, err
	}
	var res AppResult
	var runErr error
	err = tb.Run(func() {
		mr, err := newMRCluster(tb)
		if err != nil {
			runErr = err
			return
		}
		job := apps.RandomTextWriter("/rtw-out", opts.Maps, opts.BytesPerMap, true)
		r, err := mr.Submit(job)
		if err != nil {
			runErr = err
			return
		}
		res = AppResult{experiment: "E4-random-text-writer", kind: tb.kind, maps: opts.Maps, Completion: r.Duration, Counters: r.Counters}
	})
	if err == nil {
		err = runErr
	}
	return res, err
}

// RunDistributedGrep is experiment E5: generate the input with Random
// Text Writer on the same storage (as the paper's evaluation does),
// then scan it; its access pattern is highly concurrent reads.
func RunDistributedGrep(opts AppOpts) (AppResult, error) {
	tb, err := NewTestbed(opts.Spec, opts.Storage)
	if err != nil {
		return AppResult{}, err
	}
	var res AppResult
	var runErr error
	err = tb.Run(func() {
		mr, err := newMRCluster(tb)
		if err != nil {
			runErr = err
			return
		}
		// Input generation (not measured).
		gen := apps.RandomTextWriter("/grep-in", opts.Maps, opts.BytesPerMap, true)
		if _, err := mr.Submit(gen); err != nil {
			runErr = fmt.Errorf("bench: grep input generation: %w", err)
			return
		}
		job := apps.SyntheticGrep([]string{"/grep-in"}, "/grep-out")
		r, err := mr.Submit(job)
		if err != nil {
			runErr = err
			return
		}
		res = AppResult{experiment: "E5-distributed-grep", kind: tb.kind, maps: r.Counters.MapTasks, Completion: r.Duration, Counters: r.Counters}
	})
	if err == nil {
		err = runErr
	}
	return res, err
}

// runSnapshotWorkflow is extension X4 (§V): two grep jobs run
// concurrently over two different snapshots of one dataset while a
// writer keeps appending to it — only expressible on a versioning
// storage layer. Returns the two job results, snapshot 1's first; the
// run fails unless the concurrent append lands whole.
func runSnapshotWorkflow(opts AppOpts) ([]AppResult, error) {
	if opts.Storage.Kind != "bsfs" {
		return nil, fmt.Errorf("bench: X4 requires versioning storage (bsfs), got %q", opts.Storage.Kind)
	}
	tb, err := NewTestbed(opts.Spec, opts.Storage)
	if err != nil {
		return nil, err
	}
	results := make([]AppResult, 2)
	var runErr firstError
	err = tb.Run(func() {
		mr, err := newMRCluster(tb)
		if err != nil {
			runErr.set(err)
			return
		}
		fs := tb.bsfsSvc.NewFS(0)
		half := opts.BytesPerMap * int64(opts.Maps) / 2

		// Snapshot 1: first half of the dataset.
		if err := writeSynthFile(tb, 0, "/x4/data", half); err != nil {
			runErr.set(err)
			return
		}
		v1s, err := fs.Versions("/x4/data")
		if err != nil || len(v1s) == 0 {
			runErr.set(fmt.Errorf("bench: snapshot 1: %v", err))
			return
		}
		snap1 := v1s[len(v1s)-1]

		// Snapshot 2: the full dataset.
		if err := appendSynth(fs, "/x4/data", 1, half); err != nil {
			runErr.set(err)
			return
		}
		v2s, err := fs.Versions("/x4/data")
		if err != nil || len(v2s) == 0 {
			runErr.set(fmt.Errorf("bench: snapshot 2: %v", err))
			return
		}
		snap2 := v2s[len(v2s)-1]

		// Each job writes its own slot, so the results need no lock.
		wg := tb.Env.NewWaitGroup()
		runGrep := func(idx int, snap core.Version, out string) {
			wg.Go(func() {
				job := apps.SyntheticGrep([]string{"/x4/data"}, out)
				job.Name = fmt.Sprintf("grep-snap%d", idx)
				job.OpenInput = openSnapshot(snap)
				r, err := mr.Submit(job)
				if err != nil {
					runErr.set(err)
					return
				}
				results[idx-1] = AppResult{
					experiment: fmt.Sprintf("X4-snapshot-grep-%d", idx),
					kind:       tb.kind,
					maps:       r.Counters.MapTasks,
					Completion: r.Duration,
					Counters:   r.Counters,
				}
			})
		}
		// A concurrent writer keeps growing the dataset while both
		// jobs run on their frozen snapshots.
		wg.Go(func() { runErr.set(appendSynth(fs, "/x4/data", 1, half/2)) })
		runGrep(1, snap1, "/x4/out1")
		runGrep(2, snap2, "/x4/out2")
		wg.Wait()
		// The concurrent append landed on top of both snapshots.
		if fi, err := fs.Stat("/x4/data"); err != nil {
			runErr.set(err)
		} else if want := 2*half + half/2; fi.Size != want {
			runErr.set(fmt.Errorf("bench: x4 dataset is %d bytes after the concurrent append, want %d", fi.Size, want))
		}
	})
	if err == nil {
		err = runErr.get()
	}
	if err != nil {
		return nil, err
	}
	return results, nil
}

// openSnapshot returns an OpenInput hook pinning a snapshot version. On
// a non-versioning file system the AtVersion option surfaces the typed
// fsapi.ErrNotSupported.
func openSnapshot(version core.Version) func(fs fsapi.FileSystem, path string) (fsapi.Reader, error) {
	return func(fs fsapi.FileSystem, path string) (fsapi.Reader, error) {
		return fs.OpenAt(path, fsapi.AtVersion(uint64(version)))
	}
}
