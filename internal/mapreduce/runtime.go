// runtime.go is the execution engine: the jobtracker's task queue and
// locality-aware assignment, the tasktracker slots, and map/reduce
// task execution (including the shuffle).

package mapreduce

import (
	"errors"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/fsapi"
)

// Cluster is a running MapReduce framework deployment.
type Cluster struct {
	env cluster.Env
	cfg Config
	jt  *jobTracker
}

// NewCluster starts a jobtracker and one tasktracker per worker node.
// Slots run only while there are tasks: they start idle, new work
// starts every idle slot, and a slot that finds no task goes idle.
func NewCluster(env cluster.Env, cfg Config) (*Cluster, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	c := &Cluster{env: env, cfg: cfg}
	c.jt = &jobTracker{env: env, cfg: cfg, node: jobTrackerNode}
	for _, n := range cfg.WorkerNodes {
		for s := 0; s < mapSlots; s++ {
			c.jt.idle = append(c.jt.idle, slot{n, mapTask})
		}
		for s := 0; s < reduceSlots; s++ {
			c.jt.idle = append(c.jt.idle, slot{n, reduceTask})
		}
	}
	return c, nil
}

// Submit runs a job to completion and returns its result. Multiple
// jobs may run concurrently (each Submit from its own goroutine or
// simulated process).
func (c *Cluster) Submit(cfg JobConfig) (*JobResult, error) {
	if cfg.OpenInput == nil {
		cfg.OpenInput = func(fs fsapi.FileSystem, path string) (fsapi.Reader, error) {
			return fs.OpenAt(path)
		}
	}
	j, err := c.jt.prepare(cfg)
	if err != nil {
		return nil, err
	}
	c.jt.launch(j)
	j.done.Wait()
	if j.err != nil {
		return nil, j.err
	}
	return &JobResult{Duration: c.env.Now() - j.start, Counters: j.counters}, nil
}

// jobTracker holds the global task queue across concurrent jobs.
type jobTracker struct {
	env  cluster.Env
	cfg  Config
	node cluster.NodeID

	mu      sync.Mutex
	pending []*task
	idle    []slot // in the order they went idle
	nextJob int
}

// slot is one tasktracker slot: a node and the kind of task it runs.
type slot struct {
	node cluster.NodeID
	kind taskKind
}

// job is one submitted job's runtime state.
type job struct {
	id     int
	cfg    JobConfig
	fsFor  func(cluster.NodeID) fsapi.FileSystem
	splits []split

	mu          sync.Mutex
	mapsLeft    int
	reducesLeft int
	counters    Counters
	err         error
	// mapOut[m][r] holds map m's partition for reducer r (real mode);
	// mapOutBytes[m][r] the corresponding volume; mapNode[m] where the
	// map ran (shuffle sources).
	mapOut      [][][]kv
	mapOutBytes [][]int64
	mapNode     []cluster.NodeID

	start time.Duration
	done  cluster.Signal
}

// task is one schedulable attempt unit.
type task struct {
	j       *job
	kind    taskKind
	index   int
	attempt int
}

// prepare computes splits and allocates runtime state.
func (jt *jobTracker) prepare(cfg JobConfig) (*job, error) {
	jt.mu.Lock()
	id := jt.nextJob
	jt.nextJob++
	jt.mu.Unlock()

	j := &job{
		id: id, cfg: cfg, fsFor: jt.cfg.NewFS,
		done: jt.env.NewSignal(), start: jt.env.Now(),
	}
	fs := jt.cfg.NewFS(jt.node)

	if len(cfg.Input) > 0 {
		var files []string
		for _, in := range cfg.Input {
			fi, err := fs.Stat(in)
			if err != nil {
				return nil, errf("input %s: %w", in, err)
			}
			if fi.IsDir {
				infos, err := fs.List(in)
				if err != nil {
					return nil, err
				}
				for _, sub := range infos {
					if !sub.IsDir {
						files = append(files, sub.Path)
					}
				}
			} else {
				files = append(files, fi.Path)
			}
		}
		for _, f := range files {
			fi, err := fs.Stat(f)
			if err != nil {
				return nil, err
			}
			if fi.Size == 0 {
				continue
			}
			locs, err := fs.BlockLocations(f, 0, fi.Size)
			if err != nil {
				return nil, err
			}
			for _, b := range locs {
				length := b.Length
				if b.Offset+length > fi.Size {
					length = fi.Size - b.Offset
				}
				j.splits = append(j.splits, split{path: f, offset: b.Offset, length: length, hosts: b.Hosts})
			}
		}
		if len(j.splits) == 0 {
			return nil, errf("job %s: no input data", cfg.Name)
		}
	} else {
		if cfg.NumMaps <= 0 {
			return nil, errf("job %s: generator jobs need NumMaps", cfg.Name)
		}
		j.splits = make([]split, cfg.NumMaps)
	}
	j.mapsLeft = len(j.splits)
	j.reducesLeft = cfg.NumReduces
	j.mapOut = make([][][]kv, len(j.splits))
	j.mapOutBytes = make([][]int64, len(j.splits))
	j.mapNode = make([]cluster.NodeID, len(j.splits))
	j.counters.MapTasks = len(j.splits)
	if cfg.OutputDir != "" {
		if err := fs.Mkdir(cfg.OutputDir); err != nil && !errorsIsExists(err) {
			return nil, err
		}
	}
	return j, nil
}

// errorsIsExists matches wrapped ErrExists too: file systems decorate
// the sentinel with path context, which a == comparison would miss.
func errorsIsExists(err error) bool { return err == nil || errors.Is(err, fsapi.ErrExists) }

// launch enqueues the job's map tasks.
func (jt *jobTracker) launch(j *job) {
	jt.mu.Lock()
	for i := range j.splits {
		jt.pending = append(jt.pending, &task{j: j, kind: mapTask, index: i})
	}
	jt.wakeLocked()
	jt.mu.Unlock()
}

// wakeLocked starts every idle slot, in the order they went idle. Slots
// are daemons: a simulation whose body ends first ends those still
// busy, as it ends every parked process.
func (jt *jobTracker) wakeLocked() {
	for _, s := range jt.idle {
		jt.env.Daemon(func() { jt.slotLoop(s) })
	}
	jt.idle = jt.idle[:0]
}

// pickTaskLocked chooses the best pending task for a node: data-local
// maps, then rack-local, then any map, then any reduce.
func (jt *jobTracker) pickTaskLocked(node cluster.NodeID, kind taskKind) (*task, locality) {
	bestIdx := -1
	bestClass := locality(3)
	for i, t := range jt.pending {
		if t.kind != kind {
			continue
		}
		if kind == reduceTask {
			jt.pending = append(jt.pending[:i], jt.pending[i+1:]...)
			return t, remote
		}
		class := remote
		sp := t.j.splits[t.index]
		for _, h := range sp.hosts {
			if h == node {
				class = dataLocal
				break
			}
			if jt.env.Rack(h) == jt.env.Rack(node) && class > rackLocal {
				class = rackLocal
			}
		}
		if sp.path == "" {
			class = dataLocal // generator maps have no input affinity
		}
		if class < bestClass {
			bestClass, bestIdx = class, i
			if class == dataLocal {
				break
			}
		}
	}
	if bestIdx < 0 {
		return nil, remote
	}
	t := jt.pending[bestIdx]
	jt.pending = append(jt.pending[:bestIdx], jt.pending[bestIdx+1:]...)
	return t, bestClass
}

// slotLoop runs one slot: fetch a task, run it, repeat; once no task
// fits, the slot goes idle and returns.
func (jt *jobTracker) slotLoop(s slot) {
	for {
		jt.mu.Lock()
		t, class := jt.pickTaskLocked(s.node, s.kind)
		if t == nil {
			jt.idle = append(jt.idle, s)
			jt.mu.Unlock()
			return
		}
		jt.mu.Unlock()

		// Task assignment heartbeat.
		jt.env.RTT(jt.node, s.node)
		jt.taskDone(t, jt.runTask(t, s.node, class))
	}
}

// taskDone handles completion, retry, and job-phase transitions.
func (jt *jobTracker) taskDone(t *task, err error) {
	j := t.j
	if err != nil {
		j.mu.Lock()
		j.counters.FailedTasks++
		j.mu.Unlock()
		if t.attempt+1 < maxAttempts {
			retry := &task{j: j, kind: t.kind, index: t.index, attempt: t.attempt + 1}
			jt.mu.Lock()
			jt.pending = append(jt.pending, retry)
			jt.wakeLocked()
			jt.mu.Unlock()
			return
		}
		j.fail(errf("%s task %d failed after %d attempts: %w", t.kind, t.index, maxAttempts, err))
		return
	}
	j.mu.Lock()
	var phaseDone bool
	if t.kind == mapTask {
		j.mapsLeft--
		phaseDone = j.mapsLeft == 0
	} else {
		j.reducesLeft--
		phaseDone = j.reducesLeft == 0
	}
	failed := j.err != nil
	j.mu.Unlock()
	if !phaseDone || failed {
		return
	}
	if t.kind == reduceTask || j.cfg.NumReduces == 0 {
		j.finish()
		return
	}
	// Maps complete: release the reduce phase.
	jt.mu.Lock()
	for r := 0; r < j.cfg.NumReduces; r++ {
		jt.pending = append(jt.pending, &task{j: j, kind: reduceTask, index: r})
	}
	jt.wakeLocked()
	jt.mu.Unlock()
}

func (j *job) fail(err error) {
	j.mu.Lock()
	already := j.err != nil
	if !already {
		j.err = err
	}
	j.mu.Unlock()
	if !already {
		j.done.Fire()
	}
}

func (j *job) finish() { j.done.Fire() }

// runTask dispatches one attempt.
func (jt *jobTracker) runTask(t *task, node cluster.NodeID, class locality) error {
	if inj := t.j.cfg.faultInjector; inj != nil {
		if err := inj(t.kind, t.index, t.attempt); err != nil {
			return err
		}
	}
	if t.kind == mapTask {
		t.j.mu.Lock()
		switch class {
		case dataLocal:
			t.j.counters.DataLocal++
		case rackLocal:
			t.j.counters.RackLocal++
		default:
			t.j.counters.Remote++
		}
		t.j.mu.Unlock()
		return jt.runMap(t, node)
	}
	return jt.runReduce(t, node)
}
