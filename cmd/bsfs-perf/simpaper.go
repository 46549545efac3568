// simpaper.go is the sim-paper workload: the simulator run as a
// program. A 150-node simulated testbed carries the paper's four
// microbenchmark shapes for 100 clients and one distributed-grep job.
// What is measured is the host's wall clock; the virtual-time results
// are model outputs, reported as exact layer counts.
package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/fsapi"
)

type simSizes struct {
	nodes     int
	clients   int
	loBytes   int64 // per-client volume runs from loBytes to hiBytes
	hiBytes   int64
	blockSize int64
	grepMaps  int
	grepBytes int64 // per map
	rounds    int   // measured rounds in a run of nominalSeconds
}

// simRoundStats adds the model's outputs (virtual time, exact for a
// seed) and the wall-clock split of the timed phases.
type simRoundStats struct {
	roundStats
	writePhase, readPhase, grepWall time.Duration
	virtualWriteMiBps               float64
	virtualReadMiBps                float64
	virtualGrep                     time.Duration
	bytesMoved                      int64
}

// settle is the virtual pause after the load, letting the simulated
// flush daemons drain so readers meet settled caches.
const settle = 120 * time.Second

// clientVolumes deals the fixed multiset of volumes (evenly spaced from
// lo to hi, rounded to blocks) to the clients in seeded order: which
// client moves how much depends on the seed, the total does not.
func clientVolumes(seed int64, s simSizes) []int64 {
	vol := make([]int64, s.clients)
	for i, j := range newRNG(seed, 400).perm(s.clients) {
		v := s.loBytes
		if s.clients > 1 {
			v += (s.hiBytes - s.loBytes) * int64(j) / int64(s.clients-1)
		}
		vol[i] = max(v/s.blockSize, 1) * s.blockSize
	}
	return vol
}

func simPaperRound(cfg *config, s simSizes, ops *opCounter) (simRoundStats, error) {
	var out simRoundStats
	storage := bench.StorageOpts{Kind: "bsfs", BlockSize: s.blockSize}
	spec := bench.ClusterSpec{Nodes: s.nodes}
	vol := clientVolumes(cfg.seed, s)
	var total int64
	offsets := make([]int64, s.clients) // client i's slice of the shared file
	for i, v := range vol {
		offsets[i] = total
		total += v
	}
	t0 := time.Now()
	tb, err := bench.NewTestbed(spec, storage)
	if err != nil {
		return out, err
	}
	avail := s.nodes - 1
	node := func(i int) cluster.NodeID { return cluster.NodeID(1 + (i*avail)/s.clients) }
	// Loaders sit half a ring from the readers, so no read is local.
	loader := func(i int) cluster.NodeID { return cluster.NodeID(1 + (int(node(i))-1+avail/2)%avail) }

	// each runs fn for every client as a simulated process and returns
	// the virtual makespan and the mean client time over it.
	each := func(name string, fn func(i int) error) (time.Duration, float64) {
		start := tb.Env.Now()
		var busy atomic.Int64 // runnable simulated processes are real goroutines
		wg := tb.Env.NewWaitGroup()
		for i := 0; i < s.clients; i++ {
			wg.Go(func() {
				c0 := tb.Env.Now()
				if err := fn(i); err != nil {
					ops.fail("sim-paper: %s client %d: %v", name, i, err)
					return
				}
				busy.Add(int64(tb.Env.Now() - c0))
				ops.ok()
			})
		}
		wg.Wait()
		makespan := tb.Env.Now() - start
		return makespan, float64(busy.Load()) / float64(s.clients) / float64(makespan)
	}
	phase := func(layer, name string, bytes int64, fn func()) time.Duration {
		a := time.Now()
		fn()
		b := time.Now()
		cfg.rec.add(layer, name, a, b, bytes)
		return b.Sub(a)
	}

	var overlap []float64
	var m0 memSample
	runErr := tb.Run(func() {
		// Set-up, inside the simulation: load the read set.
		each("load", func(i int) error {
			return writeSynth(tb.NewFS(loader(i)), fmt.Sprintf("/r/f%04d", i), vol[i])
		})
		if err := writeSynth(tb.NewFS(0), "/r/huge", total); err != nil {
			ops.fail("sim-paper: load shared file: %v", err)
		}
		tb.Env.Sleep(settle)
		out.setup = time.Since(t0)
		m0 = cfg.memBefore()

		var vWrite, vRead time.Duration
		out.writePhase = phase("sim", "write_distinct", total, func() {
			var o float64
			vWrite, o = each("write-distinct", func(i int) error {
				return writeSynth(tb.NewFS(node(i)), fmt.Sprintf("/w/out%04d", i), vol[i])
			})
			overlap = append(overlap, o)
		})
		out.writePhase += phase("sim", "append_shared", total, func() {
			if err := writeSynth(tb.NewFS(0), "/x/shared", 0); err != nil {
				ops.fail("sim-paper: create shared file: %v", err)
				return
			}
			_, o := each("append-shared", func(i int) error {
				w, err := tb.NewFS(node(i)).Append("/x/shared")
				if err != nil {
					return err
				}
				if _, err := w.WriteSynthetic(vol[i]); err != nil {
					w.Close()
					return err
				}
				return w.Close()
			})
			overlap = append(overlap, o)
		})
		out.readPhase = phase("sim", "read_distinct", total, func() {
			var o float64
			vRead, o = each("read-distinct", func(i int) error {
				return readSynth(tb.NewFS(node(i)), fmt.Sprintf("/r/f%04d", i), 0, vol[i])
			})
			overlap = append(overlap, o)
		})
		out.readPhase += phase("sim", "read_shared", total, func() {
			_, o := each("read-shared", func(i int) error {
				return readSynth(tb.NewFS(node(i)), "/r/huge", offsets[i], vol[i])
			})
			overlap = append(overlap, o)
		})
		out.virtualWriteMiBps = float64(total) / mib / vWrite.Seconds()
		out.virtualReadMiBps = float64(total) / mib / vRead.Seconds()

		// What was written must be there, at the size it was written.
		fs := tb.NewFS(0)
		for i := 0; i < s.clients; i++ {
			checkSize(ops, fs, fmt.Sprintf("/w/out%04d", i), vol[i])
		}
		checkSize(ops, fs, "/x/shared", total)
	})
	if runErr != nil {
		return out, fmt.Errorf("sim-paper: simulation: %w", runErr)
	}
	for _, b := range tb.Net.Stats().BytesUp {
		out.bytesMoved += b
	}

	// The MapReduce job builds and loads its own testbed; all of it is
	// the user's wait, so all of it counts.
	grepBytes := int64(s.grepMaps) * s.grepBytes
	out.grepWall = phase("mapreduce", "distributed_grep", grepBytes, func() {
		res, err := bench.RunDistributedGrep(bench.AppOpts{Maps: s.grepMaps, BytesPerMap: s.grepBytes, Storage: storage, Spec: spec})
		switch {
		case err != nil:
			ops.fail("sim-paper: distributed grep: %v", err)
		case res.Counters.FailedTasks != 0 || res.Counters.InputBytes != grepBytes:
			ops.fail("sim-paper: distributed grep read %d of %d bytes with %d failed tasks",
				res.Counters.InputBytes, grepBytes, res.Counters.FailedTasks)
		default:
			ops.ok()
			out.virtualGrep = res.Completion
		}
	})

	out.writeWall = out.writePhase
	out.readWall = out.readPhase + out.grepWall
	out.wall = out.writeWall + out.readWall
	out.writeBytes = 2 * total
	out.readBytes = 2*total + grepBytes
	cfg.memAfter(&out.mem, m0, out.writeBytes+out.readBytes)
	// An operation here is one simulated client's whole transfer (or
	// one map task), and its latency the host time the phase took per
	// operation: the simulator's cost of simulating one client.
	out.writeLat = []float64{ms(out.writeWall) / float64(2*s.clients)}
	out.readLat = []float64{ms(out.readWall) / float64(2*s.clients+s.grepMaps)}
	// overlap_frac comes from virtual time here (mean client time ÷
	// makespan, averaged over the phases): scale it into the
	// sideMin/sideMax form the other workloads report.
	out.sideMax = out.wall
	out.sideMin = time.Duration(sum(overlap) / float64(max(len(overlap), 1)) * float64(out.wall))
	return out, nil
}

func writeSynth(fs fsapi.FileSystem, path string, size int64) error {
	w, err := fs.Create(path)
	if err != nil {
		return err
	}
	if size > 0 {
		if _, err := w.WriteSynthetic(size); err != nil {
			w.Close()
			return err
		}
	}
	return w.Close()
}

func readSynth(fs fsapi.FileSystem, path string, off, length int64) error {
	r, err := fs.Open(path)
	if err != nil {
		return err
	}
	defer r.Close()
	n, err := r.ReadSyntheticAt(off, length)
	if err != nil {
		return err
	}
	if n != length {
		return fmt.Errorf("short read of %s: %d of %d at %d", path, n, length, off)
	}
	return nil
}

func checkSize(ops *opCounter, fs fsapi.FileSystem, path string, want int64) {
	fi, err := fs.Stat(path)
	if err != nil || fi.Size != want {
		ops.fail("sim-paper: %s: size %d, want %d: %v", path, fi.Size, want, err)
		return
	}
	ops.ok()
}

func runSimPaper(cfg *config, r *result) error {
	s := cfg.sizes.sim
	var ops opCounter
	var last simRoundStats
	err := runRounds(cfg, r, 0, s.rounds, func() (roundStats, error) {
		st, err := simPaperRound(cfg, s, &ops)
		last = st
		return st.roundStats, err
	})
	ops.into(r)
	if cfg.rec != nil && err == nil {
		cfg.simRound = &last
	}
	return err
}
