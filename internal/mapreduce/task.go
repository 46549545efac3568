// task.go executes individual map and reduce attempts, both on real
// records and in synthetic (volume-only) mode, including the shuffle.

package mapreduce

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/fsapi"
)

// cpuCharge sleeps the modelled compute time for n bytes.
func (jt *jobTracker) cpuCharge(perMB time.Duration, n int64) {
	if perMB <= 0 || n <= 0 {
		return
	}
	jt.env.Sleep(time.Duration(float64(perMB) * float64(n) / float64(1<<20)))
}

// runMap executes one map attempt on a node.
func (jt *jobTracker) runMap(t *task, node cluster.NodeID) error {
	j := t.j
	fs := j.fsFor(node)
	sp := j.splits[t.index]

	// Generator maps produce output with no input.
	if sp.path == "" {
		return jt.runGeneratorMap(t, node, fs)
	}

	if j.cfg.Synthetic {
		return jt.runSyntheticMap(t, node, fs, sp)
	}

	r, err := j.cfg.OpenInput(fs, sp.path)
	if err != nil {
		return err
	}
	defer r.Close()

	numR := j.cfg.NumReduces
	parts := make([][]kv, max(numR, 1))
	var outBytes int64
	var emitted int64
	emit := func(key, value []byte) {
		p := 0
		if numR > 0 {
			p = partition(key, numR)
		}
		k := append([]byte(nil), key...)
		v := append([]byte(nil), value...)
		parts[p] = append(parts[p], kv{key: k, value: v})
		emitted += int64(len(k) + len(v))
	}

	var inBytes int64
	err = forEachRecord(r, sp.offset, sp.length, func(off int64, rec []byte) error {
		inBytes += int64(len(rec)) + 1
		if j.cfg.Map != nil {
			return j.cfg.Map(off, rec, emit)
		}
		return nil
	})
	if err != nil {
		return err
	}
	jt.cpuCharge(j.cfg.Profile.MapCPUPerMB, inBytes)

	if numR == 0 {
		// Map-only: write this task's emissions to its attempt-private
		// file, promoted to the part name only on success.
		err := writeOutput(fs, t, "m", func(w fsapi.Writer) error {
			for _, p := range parts {
				for _, e := range p {
					if _, err := writeRecord(w, e); err != nil {
						return err
					}
					outBytes += int64(len(e.key) + len(e.value) + 2)
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	} else {
		// Spill map output to the tasktracker's local disk.
		jt.env.DiskWrite(node, emitted)
	}

	j.mu.Lock()
	j.counters.InputBytes += inBytes
	j.counters.OutputBytes += outBytes
	if numR > 0 {
		j.mapOut[t.index] = parts
		sizes := make([]int64, numR)
		for p, lst := range parts {
			for _, e := range lst {
				sizes[p] += int64(len(e.key) + len(e.value))
			}
		}
		j.mapOutBytes[t.index] = sizes
	}
	j.mapNode[t.index] = node
	j.mu.Unlock()
	return nil
}

// runSyntheticMap moves the volumes a real map of this shape would.
func (jt *jobTracker) runSyntheticMap(t *task, node cluster.NodeID, fs fsapi.FileSystem, sp split) error {
	j := t.j
	r, err := j.cfg.OpenInput(fs, sp.path)
	if err != nil {
		return err
	}
	defer r.Close()
	n, err := r.ReadSyntheticAt(sp.offset, sp.length)
	if err != nil {
		return err
	}
	jt.cpuCharge(j.cfg.Profile.MapCPUPerMB, n)
	inter := int64(float64(n) * j.cfg.Profile.MapOutputRatio)
	numR := j.cfg.NumReduces
	if numR == 0 {
		if inter > 0 {
			if err := writeOutput(fs, t, "m", writeSynthetic(inter)); err != nil {
				return err
			}
		}
	} else if inter > 0 {
		jt.env.DiskWrite(node, inter) // spill
	}

	j.mu.Lock()
	j.counters.InputBytes += n
	if numR == 0 {
		j.counters.OutputBytes += inter
	} else {
		sizes := make([]int64, numR)
		for p := range sizes {
			sizes[p] = inter / int64(numR)
		}
		j.mapOutBytes[t.index] = sizes
	}
	j.mapNode[t.index] = node
	j.mu.Unlock()
	return nil
}

// runGeneratorMap executes an input-less map (Random Text Writer).
func (jt *jobTracker) runGeneratorMap(t *task, node cluster.NodeID, fs fsapi.FileSystem) error {
	j := t.j
	var outBytes int64
	err := writeOutput(fs, t, "m", func(w fsapi.Writer) error {
		if j.cfg.Synthetic {
			outBytes = j.cfg.Profile.GenerateBytesPerMap
			jt.cpuCharge(j.cfg.Profile.MapCPUPerMB, outBytes)
			_, err := w.WriteSynthetic(outBytes)
			return err
		}
		if j.cfg.Generate == nil {
			return errf("generator job %s has no Generate function", j.cfg.Name)
		}
		cw := &countingWriter{w: w}
		if err := j.cfg.Generate(t.index, cw); err != nil {
			return err
		}
		outBytes = cw.n
		jt.cpuCharge(j.cfg.Profile.MapCPUPerMB, outBytes)
		return nil
	})
	if err != nil {
		return err
	}
	j.mu.Lock()
	j.counters.OutputBytes += outBytes
	j.mapNode[t.index] = node
	j.mu.Unlock()
	return nil
}

// runReduce executes one reduce attempt: shuffle, sort, reduce, write.
func (jt *jobTracker) runReduce(t *task, node cluster.NodeID) error {
	j := t.j
	fs := j.fsFor(node)

	// Shuffle: fetch this reducer's partition from every map's node.
	srcSet := map[cluster.NodeID]int64{}
	var pairs []kv
	var shuffleBytes int64
	j.mu.Lock()
	for m := range j.splits {
		var vol int64
		if j.mapOutBytes[m] != nil {
			vol = j.mapOutBytes[m][t.index]
		}
		if j.mapOut[m] != nil {
			pairs = append(pairs, j.mapOut[m][t.index]...)
		}
		if vol > 0 {
			srcSet[j.mapNode[m]] += vol
			shuffleBytes += vol
		}
	}
	j.mu.Unlock()
	if shuffleBytes > 0 {
		srcs := make([]cluster.NodeID, 0, len(srcSet))
		for n := range srcSet {
			srcs = append(srcs, n)
		}
		sort.Slice(srcs, func(i, k int) bool { return srcs[i] < srcs[k] })
		// Map outputs sit on their node's local disk (spilled).
		jt.env.RTT(node, cluster.Farthest(jt.env, node, srcs))
		jt.env.Gather(node, srcs, shuffleBytes, 1.0)
	}

	if j.cfg.Synthetic {
		jt.cpuCharge(j.cfg.Profile.ReduceCPUPerMB, shuffleBytes)
		out := int64(float64(shuffleBytes) * j.cfg.Profile.ReduceOutputRatio)
		if out > 0 {
			if err := writeOutput(fs, t, "r", writeSynthetic(out)); err != nil {
				return err
			}
		}
		j.mu.Lock()
		j.counters.ShuffleBytes += shuffleBytes
		j.counters.OutputBytes += out
		j.mu.Unlock()
		return nil
	}

	// Sort and group.
	sort.SliceStable(pairs, func(a, b int) bool { return bytes.Compare(pairs[a].key, pairs[b].key) < 0 })
	jt.cpuCharge(j.cfg.Profile.ReduceCPUPerMB, shuffleBytes)

	var outBytes int64
	err := writeOutput(fs, t, "r", func(w fsapi.Writer) error {
		var err error
		emit := func(key, value []byte) {
			n, werr := writeRecord(w, kv{key: key, value: value})
			if werr != nil && err == nil {
				err = werr
			}
			outBytes += int64(n)
		}
		for i := 0; i < len(pairs); {
			k := i
			for k < len(pairs) && bytes.Equal(pairs[k].key, pairs[i].key) {
				k++
			}
			values := make([][]byte, 0, k-i)
			for _, p := range pairs[i:k] {
				values = append(values, p.value)
			}
			if j.cfg.Reduce != nil {
				if rerr := j.cfg.Reduce(pairs[i].key, values, emit); rerr != nil {
					return rerr
				}
			} else {
				for _, p := range pairs[i:k] {
					emit(p.key, p.value)
				}
			}
			i = k
		}
		return err
	})
	if err != nil {
		return err
	}
	j.mu.Lock()
	j.counters.ShuffleBytes += shuffleBytes
	j.counters.OutputBytes += outBytes
	j.mu.Unlock()
	return nil
}

// partName renders an output part file path.
func partName(dir, phase string, idx int) string {
	return fmt.Sprintf("%s/part-%s-%05d", dir, phase, idx)
}

// writeOutput writes one task attempt's output through write into the
// attempt-private file (part name + ".attempt-N"), then promotes it to
// the part name, replacing any previous attempt's output. Attempts
// never write the part name directly: a failed attempt must not
// clobber the output of an earlier one, so on any error the private
// file is closed and removed instead.
func writeOutput(fs fsapi.FileSystem, t *task, phase string, write func(fsapi.Writer) error) error {
	final := partName(t.j.cfg.OutputDir, phase, t.index)
	tmp := fmt.Sprintf("%s.attempt-%d", final, t.attempt)
	fs.Delete(tmp) // leftover of an earlier same-numbered attempt
	w, err := fs.Create(tmp)
	if err != nil {
		return err
	}
	if err := write(w); err != nil {
		w.Close()
		fs.Delete(tmp)
		return err
	}
	if err := w.Close(); err != nil {
		fs.Delete(tmp)
		return err
	}
	fs.Delete(final)
	return fs.Rename(tmp, final)
}

// writeSynthetic is a writeOutput body of n synthetic bytes.
func writeSynthetic(n int64) func(fsapi.Writer) error {
	return func(w fsapi.Writer) error {
		_, err := w.WriteSynthetic(n)
		return err
	}
}

// writeRecord writes "key\tvalue\n".
func writeRecord(w fsapi.Writer, e kv) (int, error) {
	buf := make([]byte, 0, len(e.key)+len(e.value)+2)
	buf = append(buf, e.key...)
	buf = append(buf, '\t')
	buf = append(buf, e.value...)
	buf = append(buf, '\n')
	return w.Write(buf)
}

// countingWriter counts bytes written through it.
type countingWriter struct {
	w fsapi.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func (c *countingWriter) WriteSynthetic(n int64) (int64, error) {
	m, err := c.w.WriteSynthetic(n)
	c.n += m
	return m, err
}

func (c *countingWriter) Close() error { return c.w.Close() }

// forEachRecord iterates newline-delimited records of a split using
// Hadoop's boundary convention: a split at offset > 0 skips the partial
// first line (it belongs to the previous split) and the record that
// *starts* inside the split is processed completely, reading past the
// split end if needed. The record slice is only valid during the
// callback.
func forEachRecord(r fsapi.Reader, offset, length int64, fn func(off int64, rec []byte) error) error {
	const bufSize = 1 << 16
	size := r.Size()
	end := offset + length
	pos := offset

	var pending []byte // bytes of the in-progress record
	recStart := pos
	skipFirst := offset > 0
	buf := make([]byte, bufSize)
	for pos < size {
		n, readErr := r.ReadAt(buf, pos)
		if n == 0 {
			if readErr != nil && !errors.Is(readErr, io.EOF) {
				return readErr
			}
			break
		}
		chunk := buf[:n]
		idx := 0
		for idx < len(chunk) {
			i := bytes.IndexByte(chunk[idx:], '\n')
			if i < 0 {
				if !skipFirst {
					pending = append(pending, chunk[idx:]...)
				}
				break
			}
			lineEnd := idx + i
			if skipFirst {
				skipFirst = false
			} else {
				var rec []byte
				if len(pending) > 0 {
					rec = append(pending, chunk[idx:lineEnd]...)
				} else {
					rec = chunk[idx:lineEnd]
				}
				if recStart <= end {
					if err := fn(recStart, rec); err != nil {
						return err
					}
				}
				pending = pending[:0]
			}
			idx = lineEnd + 1
			recStart = pos + int64(idx)
			if recStart > end {
				return nil // next record belongs to the next split
			}
		}
		pos += int64(n)
	}
	// Final record without a trailing newline.
	if !skipFirst && len(pending) > 0 && recStart <= end {
		return fn(recStart, pending)
	}
	return nil
}
