// runtime.go is the execution engine: the jobtracker's task queue and
// locality-aware assignment, the tasktracker slot loops, and map/reduce
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
// Slot loops are daemons: they live for the duration of the
// environment.
func NewCluster(env cluster.Env, cfg Config) (*Cluster, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	c := &Cluster{env: env, cfg: cfg}
	c.jt = &jobTracker{env: env, cfg: cfg, node: cfg.JobTrackerNode}
	c.jt.workSig = env.NewSignal()
	if cfg.Speculative {
		// Periodically wake idle slots so they can notice stragglers
		// that crossed the speculation threshold.
		delay := cfg.SpeculativeDelay
		if delay <= 0 {
			delay = 10 * time.Second
		}
		env.Daemon(func() {
			for {
				env.Sleep(delay)
				c.jt.mu.Lock()
				if len(c.jt.jobs) > 0 {
					c.jt.wakeLocked()
				}
				c.jt.mu.Unlock()
			}
		})
	}
	for _, n := range cfg.WorkerNodes {
		for s := 0; s < cfg.MapSlots; s++ {
			node := n
			env.Daemon(func() { c.jt.slotLoop(node, MapTask) })
		}
		for s := 0; s < cfg.ReduceSlots; s++ {
			node := n
			env.Daemon(func() { c.jt.slotLoop(node, ReduceTask) })
		}
	}
	return c, nil
}

// Submit runs a job to completion and returns its result. Multiple
// jobs may run concurrently (each Submit from its own goroutine or
// simulated process).
func (c *Cluster) Submit(cfg JobConfig) (*JobResult, error) {
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.OpenInput == nil {
		cfg.OpenInput = func(fs fsapi.FileSystem, path string, opts ...fsapi.OpenOption) (fsapi.Reader, error) {
			return fs.OpenAt(path, opts...)
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
	return &JobResult{Name: cfg.Name, Duration: c.env.Now() - j.start, Counters: j.counters}, nil
}

// jobTracker holds the global task queue across concurrent jobs.
type jobTracker struct {
	env  cluster.Env
	cfg  Config
	node cluster.NodeID

	mu      sync.Mutex
	pending []*task
	workSig cluster.Signal
	nextJob int
	jobs    []*job // active jobs (speculation scans them)
}

// runKey identifies a logical task within a job.
type runKey struct {
	kind  TaskKind
	index int
}

// runInfo tracks in-flight attempts of one logical task.
type runInfo struct {
	attempts int
	started  time.Duration // virtual time of the first attempt
	// cancels holds each in-flight attempt's op-scope cancel function,
	// keyed by attempt number. When one attempt wins, the others'
	// scopes are canceled so speculative losers die mid-I/O instead of
	// running to completion.
	cancels map[int]func()
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
	// completed marks logical tasks whose first successful attempt
	// already counted (speculative duplicates are discarded).
	completed map[runKey]bool
	// running tracks in-flight attempts for the speculator.
	running map[runKey]*runInfo
	// speculated counts backup attempts launched (reported in tests).
	speculated int
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
	kind    TaskKind
	index   int
	attempt int
	// ctx scopes this attempt's storage I/O: it expires after
	// Config.TaskTimeout and is canceled when another attempt of the
	// same logical task completes first. Set by the slot loop.
	ctx *cluster.Ctx
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
		completed: make(map[runKey]bool),
		running:   make(map[runKey]*runInfo),
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
	j.counters.ReduceTasks = cfg.NumReduces
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
	jt.jobs = append(jt.jobs, j)
	for i := range j.splits {
		jt.pending = append(jt.pending, &task{j: j, kind: MapTask, index: i})
	}
	jt.wakeLocked()
	jt.mu.Unlock()
}

// finishJob removes a completed job from the active list.
func (jt *jobTracker) finishJob(j *job) {
	jt.mu.Lock()
	for i, other := range jt.jobs {
		if other == j {
			jt.jobs = append(jt.jobs[:i], jt.jobs[i+1:]...)
			break
		}
	}
	jt.mu.Unlock()
}

// wakeLocked signals slot loops that new work exists.
func (jt *jobTracker) wakeLocked() {
	old := jt.workSig
	jt.workSig = jt.env.NewSignal()
	old.Fire()
}

// pickTaskLocked chooses the best pending task for a node: data-local
// maps, then rack-local, then any map, then any reduce.
func (jt *jobTracker) pickTaskLocked(node cluster.NodeID, kind TaskKind) (*task, Locality) {
	bestIdx := -1
	bestClass := Locality(3)
	for i, t := range jt.pending {
		if t.kind != kind {
			continue
		}
		if kind == ReduceTask {
			jt.pending = append(jt.pending[:i], jt.pending[i+1:]...)
			return t, Remote
		}
		class := Remote
		sp := t.j.splits[t.index]
		for _, h := range sp.hosts {
			if h == node {
				class = DataLocal
				break
			}
			if jt.env.Rack(h) == jt.env.Rack(node) && class > RackLocal {
				class = RackLocal
			}
		}
		if sp.path == "" {
			class = DataLocal // generator maps have no input affinity
		}
		if class < bestClass {
			bestClass, bestIdx = class, i
			if class == DataLocal {
				break
			}
		}
	}
	if bestIdx < 0 {
		return jt.speculateLocked(kind), Remote
	}
	t := jt.pending[bestIdx]
	jt.pending = append(jt.pending[:bestIdx], jt.pending[bestIdx+1:]...)
	return t, bestClass
}

// speculateLocked picks a straggling in-flight task to duplicate on an
// otherwise idle slot (first completion wins). Returns nil when
// speculation is off or nothing qualifies.
func (jt *jobTracker) speculateLocked(kind TaskKind) *task {
	if !jt.cfg.Speculative {
		return nil
	}
	delay := jt.cfg.SpeculativeDelay
	if delay <= 0 {
		delay = 10 * time.Second
	}
	now := jt.env.Now()
	var bestJob *job
	var bestKey runKey
	var bestStart time.Duration
	for _, j := range jt.jobs {
		j.mu.Lock()
		for key, ri := range j.running {
			if key.kind != kind || ri.attempts != 1 || j.completed[key] {
				continue
			}
			if now-ri.started < delay {
				continue
			}
			if bestJob == nil || ri.started < bestStart {
				bestJob, bestKey, bestStart = j, key, ri.started
			}
		}
		j.mu.Unlock()
	}
	if bestJob == nil {
		return nil
	}
	bestJob.mu.Lock()
	if ri, ok := bestJob.running[bestKey]; ok {
		ri.attempts++
	}
	bestJob.speculated++
	bestJob.mu.Unlock()
	return &task{j: bestJob, kind: bestKey.kind, index: bestKey.index, attempt: 1}
}

// slotLoop is one tasktracker slot: fetch a task, run it, repeat.
func (jt *jobTracker) slotLoop(node cluster.NodeID, kind TaskKind) {
	for {
		jt.mu.Lock()
		t, class := jt.pickTaskLocked(node, kind)
		if t == nil {
			sig := jt.workSig
			jt.mu.Unlock()
			sig.Wait()
			continue
		}
		jt.mu.Unlock()

		// Every attempt runs under its own op scope: a deadline when
		// TaskTimeout is configured (straggler kill), a plain cancelable
		// scope otherwise (so a winning duplicate can kill this one).
		var cancel func()
		if jt.cfg.TaskTimeout > 0 {
			t.ctx, cancel = cluster.WithTimeout(jt.env, jt.cfg.TaskTimeout)
		} else {
			t.ctx, cancel = cluster.WithCancel(jt.env)
		}

		key := runKey{kind: t.kind, index: t.index}
		t.j.mu.Lock()
		ri, ok := t.j.running[key]
		if !ok {
			ri = &runInfo{attempts: 1, started: jt.env.Now()}
			t.j.running[key] = ri
		}
		// (speculative duplicates were already counted by the picker)
		if ri.cancels == nil {
			ri.cancels = make(map[int]func())
		}
		ri.cancels[t.attempt] = cancel
		t.j.mu.Unlock()

		// Task assignment heartbeat.
		jt.env.RTT(jt.node, node)
		err := jt.runTask(t, node, class)

		t.j.mu.Lock()
		if ri, ok := t.j.running[key]; ok {
			delete(ri.cancels, t.attempt)
			ri.attempts--
			if ri.attempts <= 0 {
				delete(t.j.running, key)
			}
		}
		t.j.mu.Unlock()
		cancel() // release the scope's watchers/deadline
		jt.taskDone(t, node, err)
	}
}

// taskDone handles completion, retry, and job-phase transitions.
func (jt *jobTracker) taskDone(t *task, node cluster.NodeID, err error) {
	j := t.j
	key := runKey{kind: t.kind, index: t.index}
	if err != nil {
		// A failed attempt of an already-completed logical task is a
		// duplicate whose work is moot — typically a speculative loser
		// the winner killed (cluster.ErrCanceled), or one that lost the
		// output-commit rename race. Expected, not a failure: no
		// counter bump, no retry.
		j.mu.Lock()
		done := j.completed[key]
		j.mu.Unlock()
		if done {
			return
		}
		j.mu.Lock()
		j.counters.FailedTasks++
		j.mu.Unlock()
		if t.attempt+1 < j.cfg.MaxAttempts {
			retry := &task{j: j, kind: t.kind, index: t.index, attempt: t.attempt + 1}
			jt.mu.Lock()
			jt.pending = append(jt.pending, retry)
			jt.wakeLocked()
			jt.mu.Unlock()
			return
		}
		jt.finishJob(j)
		j.fail(errf("%s task %d failed after %d attempts: %w", t.kind, t.index, j.cfg.MaxAttempts, err))
		return
	}
	switch t.kind {
	case MapTask:
		j.mu.Lock()
		if j.completed[key] {
			j.mu.Unlock()
			return // a speculative duplicate already finished this task
		}
		j.completed[key] = true
		losers := j.loserCancelsLocked(key)
		j.mapsLeft--
		mapsDone := j.mapsLeft == 0
		failed := j.err != nil
		j.mu.Unlock()
		killAttempts(losers)
		if !mapsDone || failed {
			return
		}
		if j.cfg.NumReduces == 0 {
			jt.finishJob(j)
			j.finish()
			return
		}
		// Maps complete: release the reduce phase.
		jt.mu.Lock()
		for r := 0; r < j.cfg.NumReduces; r++ {
			jt.pending = append(jt.pending, &task{j: j, kind: ReduceTask, index: r})
		}
		jt.wakeLocked()
		jt.mu.Unlock()
	case ReduceTask:
		j.mu.Lock()
		if j.completed[key] {
			j.mu.Unlock()
			return
		}
		j.completed[key] = true
		losers := j.loserCancelsLocked(key)
		j.reducesLeft--
		reducesDone := j.reducesLeft == 0
		failed := j.err != nil
		j.mu.Unlock()
		killAttempts(losers)
		if reducesDone && !failed {
			jt.finishJob(j)
			j.finish()
		}
	}
}

// loserCancelsLocked snapshots the cancel functions of every attempt
// of key still in flight — the speculative losers of the attempt that
// just completed. Called with j.mu held; the cancels are invoked after
// the lock drops.
func (j *job) loserCancelsLocked(key runKey) []func() {
	ri, ok := j.running[key]
	if !ok {
		return nil
	}
	out := make([]func(), 0, len(ri.cancels))
	for _, c := range ri.cancels {
		out = append(out, c)
	}
	return out
}

// killAttempts cancels the op scopes of losing attempts: their storage
// I/O fails promptly with cluster.ErrCanceled and taskDone discards
// them as benign.
func killAttempts(cancels []func()) {
	for _, c := range cancels {
		c()
	}
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
func (jt *jobTracker) runTask(t *task, node cluster.NodeID, class Locality) error {
	if inj := t.j.cfg.FaultInjector; inj != nil {
		if err := inj(t.kind, t.index, t.attempt); err != nil {
			return err
		}
	}
	if t.kind == MapTask {
		t.j.mu.Lock()
		switch class {
		case DataLocal:
			t.j.counters.DataLocal++
		case RackLocal:
			t.j.counters.RackLocal++
		default:
			t.j.counters.Remote++
		}
		t.j.mu.Unlock()
		return jt.runMap(t, node)
	}
	return jt.runReduce(t, node)
}
