// micro.go runs the paper's §IV.B microbenchmarks: N concurrent
// clients hitting the storage layer directly through its file-system
// interface.

package bench

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fsapi"
)

// settleTime is the virtual-time pause between the load phase and the
// measured phase of read benchmarks: the providers' flushers drain their
// write backlog, so readers face settled caches (LRU-resident up to
// MemCapacity, the rest on disk) exactly as on a testbed where data
// was loaded earlier.
const settleTime = 120 * time.Second

// microOpts parameterizes a microbenchmark run.
type microOpts struct {
	clients int
	// bytesPerClient is the data each client reads or writes (the
	// paper uses 1 GB).
	bytesPerClient int64
	// recordSize splits reads into individual requests of this size
	// (0 = one streaming request). MapReduce reads small records; the
	// client-cache ablation (A2) depends on this.
	recordSize int64
	storage    StorageOpts
	spec       ClusterSpec
}

func (o *microOpts) fillDefaults() {
	if o.clients <= 0 {
		o.clients = 1
	}
	if o.bytesPerClient <= 0 {
		o.bytesPerClient = 1 * GB
	}
}

// runReadDistinct is experiment E1: clients concurrently read from
// different files (map phase over distinct inputs). Files are
// pre-loaded from nodes far from their readers.
func runReadDistinct(opts microOpts) (point, error) {
	opts.fillDefaults()
	tb, err := NewTestbed(opts.spec, opts.storage)
	if err != nil {
		return point{}, err
	}
	clients := tb.clientNodes(opts.clients)
	path := func(i int) string { return fmt.Sprintf("/e1/f%04d", i) }
	var p point
	var runErr error
	err = tb.Run(func() {
		if runErr = tb.loadFar(clients, path, opts.bytesPerClient); runErr != nil {
			return
		}
		tb.Env.Sleep(settleTime)
		p, runErr = tb.phase("E1-read-distinct", opts.bytesPerClient, clients, func(i int, c cluster.NodeID) error {
			return readSynthFile(tb, c, path(i), 0, opts.bytesPerClient, opts.recordSize)
		})
	})
	if err == nil {
		err = runErr
	}
	return p, err
}

// runReadShared is experiment E2: clients concurrently read disjoint
// parts of the same huge file (map phase over one shared input).
func runReadShared(opts microOpts) (point, error) {
	opts.fillDefaults()
	tb, err := NewTestbed(opts.spec, opts.storage)
	if err != nil {
		return point{}, err
	}
	clients := tb.clientNodes(opts.clients)
	var p point
	var runErr error
	err = tb.Run(func() {
		// Load phase: one huge file written from the master node (not
		// a storage node, so HDFS places chunks fleet-wide).
		total := opts.bytesPerClient * int64(opts.clients)
		if runErr = writeSynthFile(tb, 0, "/e2/huge", total); runErr != nil {
			return
		}
		tb.Env.Sleep(settleTime)
		p, runErr = tb.phase("E2-read-shared", opts.bytesPerClient, clients, func(i int, c cluster.NodeID) error {
			return readSynthFile(tb, c, "/e2/huge", int64(i)*opts.bytesPerClient, opts.bytesPerClient, opts.recordSize)
		})
	})
	if err == nil {
		err = runErr
	}
	return p, err
}

// runWriteDistinct is experiment E3: clients concurrently write to
// different files (reduce phase writing distinct outputs).
func runWriteDistinct(opts microOpts) (point, error) {
	opts.fillDefaults()
	tb, err := NewTestbed(opts.spec, opts.storage)
	if err != nil {
		return point{}, err
	}
	clients := tb.clientNodes(opts.clients)
	var p point
	var runErr error
	err = tb.Run(func() {
		p, runErr = tb.phase("E3-write-distinct", opts.bytesPerClient, clients, func(i int, c cluster.NodeID) error {
			return writeSynthFile(tb, c, fmt.Sprintf("/e3/out%04d", i), opts.bytesPerClient)
		})
	})
	if err == nil {
		err = runErr
	}
	return p, err
}

// runAppendShared is extension X1 (§V future work): clients
// concurrently append to the same file. Only BSFS supports it; running
// it against HDFS returns the unsupported error, which is itself the
// paper's point.
func runAppendShared(opts microOpts) (point, error) {
	opts.fillDefaults()
	tb, err := NewTestbed(opts.spec, opts.storage)
	if err != nil {
		return point{}, err
	}
	clients := tb.clientNodes(opts.clients)
	var p point
	var runErr error
	err = tb.Run(func() {
		if runErr = createEmpty(tb.NewFS(0), "/x1/shared"); runErr != nil {
			return
		}
		p, runErr = tb.phase("X1-append-shared", opts.bytesPerClient, clients, func(_ int, c cluster.NodeID) error {
			return appendSynth(tb.NewFS(c), "/x1/shared", 1, opts.bytesPerClient)
		})
		if runErr != nil {
			return
		}
		// Validate the tiling: total size must equal the sum of appends.
		fi, err := tb.NewFS(0).Stat("/x1/shared")
		if err != nil {
			runErr = err
		} else if fi.Size != opts.bytesPerClient*int64(opts.clients) {
			runErr = fmt.Errorf("bench: shared append lost data: size %d", fi.Size)
		}
	})
	if err == nil {
		err = runErr
	}
	return p, err
}

// loadFar writes one file of size bytes per client, path(i) from the
// loader node of clients[i], so no reader finds its data local. The
// load is not measured.
func (tb *Testbed) loadFar(clients []cluster.NodeID, path func(int) string, size int64) error {
	var loadErr firstError
	wg := tb.Env.NewWaitGroup()
	for i, c := range clients {
		loader := tb.loaderNode(c)
		wg.Go(func() { loadErr.set(writeSynthFile(tb, loader, path(i), size)) })
	}
	wg.Wait()
	return loadErr.get()
}

// createEmpty creates an empty file for appenders to extend.
func createEmpty(fs fsapi.FileSystem, path string) error {
	w, err := fs.Create(path)
	if err != nil {
		return err
	}
	return w.Close()
}

// appendSynth appends blocks synthetic writes of size bytes each to a
// file through one append stream.
func appendSynth(fs fsapi.FileSystem, path string, blocks int, size int64) error {
	aw, err := fs.Append(path)
	if err != nil {
		return err
	}
	for b := 0; b < blocks; b++ {
		if _, err := aw.WriteSynthetic(size); err != nil {
			aw.Close()
			return err
		}
	}
	return aw.Close()
}

// writeSynthFile writes a synthetic file of the given size from a node.
func writeSynthFile(tb *Testbed, node cluster.NodeID, path string, size int64) error {
	fs := tb.NewFS(node)
	w, err := fs.Create(path)
	if err != nil {
		return err
	}
	if _, err := w.WriteSynthetic(size); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}

// readSynthFile streams length bytes at off of a file from a node,
// optionally as a sequence of record-sized requests. A testbed with
// noClientCache sends each request to BlobSeer as it is, through the
// file's blob at its latest version when the read starts: A2's arm,
// which pays the same namespace and version-manager round trips as Open.
func readSynthFile(tb *Testbed, node cluster.NodeID, path string, off, length, recordSize int64) error {
	var readAt func(off, n int64) (int64, error)
	if tb.noClientCache {
		b, err := tb.bsfsSvc.NewFS(node).Blob(path)
		if err != nil {
			return err
		}
		v, _, err := b.Latest()
		if err != nil {
			return err
		}
		readAt = func(off, n int64) (int64, error) {
			return b.ReadAt(nil, off, core.AtVersion(v), core.Synthetic(n))
		}
	} else {
		r, err := tb.NewFS(node).Open(path)
		if err != nil {
			return err
		}
		defer r.Close()
		readAt = r.ReadSyntheticAt
	}
	if recordSize <= 0 {
		recordSize = length
	}
	var done int64
	for done < length {
		want := recordSize
		if done+want > length {
			want = length - done
		}
		n, err := readAt(off+done, want)
		if err != nil {
			return err
		}
		if n != want {
			return fmt.Errorf("bench: short read: %d of %d at %d", n, want, off+done)
		}
		done += want
	}
	return nil
}
