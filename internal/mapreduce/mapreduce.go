// Package mapreduce implements the Hadoop-style MapReduce framework the
// paper runs its applications on (§II.A): a single jobtracker that
// splits jobs into tasks, multiple tasktrackers (one per node) that
// execute them in map/reduce slots, data-locality-aware scheduling via
// the file system's BlockLocations, and re-execution of failed tasks.
//
// The framework is storage-agnostic: it only sees fsapi.FileSystem,
// which is how the paper swaps HDFS for BSFS underneath an unmodified
// Hadoop. Jobs run either on real data (map and reduce functions
// process actual records) or synthetically (the framework moves the
// byte volumes a job of that shape would move — used at cluster scale).
package mapreduce

import (
	"errors"
	"fmt"
	"hash/fnv"
	"time"

	"repro/internal/cluster"
	"repro/internal/fsapi"
)

// EmitFunc receives one intermediate or output key-value pair.
type EmitFunc func(key, value []byte)

// MapFunc processes one input record (for line-oriented inputs, one
// line without its trailing newline) found at byte offset off.
type MapFunc func(off int64, record []byte, emit EmitFunc) error

// ReduceFunc merges all values observed for one intermediate key.
type ReduceFunc func(key []byte, values [][]byte, emit EmitFunc) error

// GenerateFunc produces the output of one map task of a generator job
// (a job with no input, such as Random Text Writer).
type GenerateFunc func(task int, w fsapi.Writer) error

// Profile describes the I/O and CPU shape of a job for synthetic
// execution.
type Profile struct {
	// MapOutputRatio is intermediate bytes emitted per input byte.
	MapOutputRatio float64
	// ReduceOutputRatio is output bytes per intermediate byte.
	ReduceOutputRatio float64
	// MapCPUPerMB / ReduceCPUPerMB charge compute time per MiB
	// processed (identical for both storage back-ends, so comparisons
	// stay I/O-driven).
	MapCPUPerMB    time.Duration
	ReduceCPUPerMB time.Duration
	// GenerateBytesPerMap is the output volume of each synthetic
	// generator map task.
	GenerateBytesPerMap int64
}

// JobConfig describes a MapReduce job.
type JobConfig struct {
	Name string
	// Input files or directories (every contained file is included).
	// Empty for generator jobs.
	Input []string
	// OutputDir receives part-m-NNNNN (map-only jobs) or part-r-NNNNN
	// files.
	OutputDir string
	// NumMaps is the map task count for generator jobs (input-driven
	// jobs derive it from block splits).
	NumMaps int
	// NumReduces is the reduce task count; 0 makes the job map-only.
	NumReduces int

	Map      MapFunc
	Reduce   ReduceFunc
	Generate GenerateFunc

	// Synthetic switches the job to volume-only execution using
	// Profile (required when inputs are synthetic files).
	Synthetic bool
	Profile   Profile

	// OpenInput overrides how input readers are obtained (e.g. pinning
	// a snapshot version with fsapi.AtVersion). Defaults to fs.OpenAt.
	OpenInput func(fs fsapi.FileSystem, path string) (fsapi.Reader, error)

	// faultInjector, when set, is consulted before each task attempt;
	// a non-nil error fails that attempt. Tests set it.
	faultInjector func(kind taskKind, task, attempt int) error
}

// maxAttempts bounds the attempts of one task: a task whose attempts
// all fail fails its job.
const maxAttempts = 3

// The deployment's shape: node 0 hosts the jobtracker, as it hosts
// the storage masters, and each tasktracker runs mapSlots map slots and
// reduceSlots reduce slots.
const (
	jobTrackerNode cluster.NodeID = 0
	mapSlots                      = 2
	reduceSlots                   = 1
)

// taskKind distinguishes map from reduce tasks.
type taskKind int

// Task kinds.
const (
	mapTask taskKind = iota
	reduceTask
)

func (k taskKind) String() string {
	if k == mapTask {
		return "map"
	}
	return "reduce"
}

// locality classifies where a map task ran relative to its input.
type locality int

// Locality classes.
const (
	dataLocal locality = iota
	rackLocal
	remote
)

// Counters aggregates job execution statistics.
type Counters struct {
	MapTasks     int
	FailedTasks  int
	DataLocal    int
	RackLocal    int
	Remote       int
	InputBytes   int64
	ShuffleBytes int64
	OutputBytes  int64
}

// JobResult reports a finished job.
type JobResult struct {
	Duration time.Duration
	Counters Counters
}

// Config parameterizes the framework deployment.
type Config struct {
	// WorkerNodes run tasktrackers.
	WorkerNodes []cluster.NodeID
	// NewFS builds the storage client a node's tasks use — the single
	// point where BSFS or HDFS is plugged in.
	NewFS func(node cluster.NodeID) fsapi.FileSystem
}

func (c *Config) validate() error {
	if len(c.WorkerNodes) == 0 {
		return errors.New("mapreduce: no worker nodes")
	}
	if c.NewFS == nil {
		return errors.New("mapreduce: NewFS factory required")
	}
	return nil
}

// split is one map task's input assignment.
type split struct {
	path   string
	offset int64
	length int64
	hosts  []cluster.NodeID
}

// partition hashes an intermediate key to a reducer.
func partition(key []byte, numReduces int) int {
	h := fnv.New32a()
	h.Write(key)
	return int(h.Sum32() % uint32(numReduces))
}

// kv is an intermediate pair.
type kv struct {
	key, value []byte
}

func errf(format string, args ...any) error { return fmt.Errorf("mapreduce: "+format, args...) }
