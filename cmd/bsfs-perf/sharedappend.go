// sharedappend.go is the shared-append workload: two clients append
// small blocks to one blob, then two fresh clients read random
// (version, offset) windows of it. Bytes are few; the version manager,
// the metadata tree and the DHT do the work.
package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
)

type saSizes struct {
	providers  int
	pageSize   int64
	appendSize int64
	readSize   int64
	preload    int // appends during set-up, split between the clients
	appends    int // timed appends per client
	reads      int // timed reads per client
	rounds     int // measured rounds in a run of nominalSeconds
}

func (s saSizes) footprint() int64 {
	versions := int64(s.preload + clients*s.appends)
	// Pages, plus the tree nodes each version adds and the clients'
	// metadata caches (a few hundred bytes per node, ~20 nodes per
	// version), with room for the garbage between collections.
	return 2*versions*s.appendSize + versions*20*512
}

// newRAMDeployment builds an in-process deployment with RAM-only
// providers on nodes 1..n and one version-manager shard.
func newRAMDeployment(providers int, pageSize int64) (*core.Deployment, error) {
	return core.NewDeployment(cluster.NewLocal(providers+1, 0), core.Options{
		PageSize:      pageSize,
		Replication:   1,
		ProviderNodes: nodeRange(providers),
	})
}

// saTag is the word-pattern tag of the idx-th block writer w appends.
func saTag(seed int64, w, idx int) uint64 {
	return mix(uint64(seed)) ^ mix(uint64(w)<<40|uint64(idx))
}

// window draws a read: a published version old enough to hold one
// read, and an 8-byte-aligned offset within that version's size.
func (s saSizes) window(rnd *rng, published int64) (version, off int64) {
	oldest := (s.readSize + s.appendSize - 1) / s.appendSize
	version = oldest + rnd.intn(published-oldest+1)
	return version, rnd.intn((version*s.appendSize-s.readSize)/8+1) * 8
}

// checkWindow verifies a read of len(buf) bytes at off against the
// tags of the blocks it covers (block i lies at i*appendSize).
func (s saSizes) checkWindow(buf []byte, off int64, chunkTag []uint64) bool {
	for done := int64(0); done < int64(len(buf)); {
		chunk, within := (off+done)/s.appendSize, (off+done)%s.appendSize
		piece := min(s.appendSize-within, int64(len(buf))-done)
		if !checkWords(buf[done:done+piece], chunkTag[chunk], int(within/8)) {
			return false
		}
		done += piece
	}
	return true
}

func sharedAppendRound(cfg *config, s saSizes, ops *opCounter) (roundStats, error) {
	var out roundStats
	t0 := time.Now()
	dep, err := newRAMDeployment(s.providers, s.pageSize)
	if err != nil {
		return out, err
	}
	defer dep.Close()
	creator := dep.NewClient(0)
	blob, err := creator.CreateBlob(s.pageSize)
	if err != nil {
		return out, err
	}
	total := s.preload + clients*s.appends
	// chunkTag[i] is the tag of the block at offset i*appendSize,
	// filled in from the offset each Append returns. Appends all have
	// one size, so block i is also version i+1; every append checks it.
	chunkTag := make([]uint64, total)
	var writers [clients]*core.Blob
	var payload [clients][]byte
	for g := range writers {
		if writers[g], err = dep.NewClient(0).OpenBlob(blob.ID()); err != nil {
			return out, err
		}
		payload[g] = make([]byte, s.appendSize)
	}

	// appendBlocks has client g append n blocks numbered from first.
	appendBlocks := func(first, n int, timed bool) (lat []float64, elapsed [clients]time.Duration) {
		var perClient [clients][]float64
		parallel(clients, func(g int) {
			start := time.Now()
			for idx := first; idx < first+n; idx++ {
				tag := saTag(cfg.seed, g, idx)
				fillWords(payload[g], tag)
				a := time.Now()
				vs, off, err := writers[g].Append(core.Blocks(payload[g]))
				b := time.Now()
				if err != nil || len(vs) != 1 {
					ops.fail("shared-append: append %d/%d: versions %v: %v", g, idx, vs, err)
					continue
				}
				chunk := off / s.appendSize
				if off%s.appendSize != 0 || chunk >= int64(total) || int64(vs[0]) != chunk+1 {
					ops.fail("shared-append: append %d/%d landed at %d as version %d", g, idx, off, vs[0])
					continue
				}
				chunkTag[chunk] = tag
				ops.ok()
				if timed {
					perClient[g] = append(perClient[g], ms(b.Sub(a)))
					cfg.rec.add("core", "append_small", a, b, s.appendSize)
				}
			}
			elapsed[g] = time.Since(start)
		})
		return flatten(perClient), elapsed
	}

	appendBlocks(0, s.preload/clients, false)
	out.setup = time.Since(t0)
	runtime.GC()

	m0 := cfg.memBefore()
	t1 := time.Now()
	lat, elapsed := appendBlocks(s.preload/clients, s.appends, true)
	out.writeWall, out.writeLat = time.Since(t1), lat
	out.writeBytes = int64(clients*s.appends) * s.appendSize
	out.sides(elapsed)
	cfg.memAfter(&out.mem, m0, out.writeBytes)
	runtime.GC()

	// Read phase: fresh clients, so their metadata caches start cold,
	// and random versions, so the tree nodes they walk far outnumber
	// what those caches hold.
	var readers [clients]*core.Blob
	for g := range readers {
		if readers[g], err = dep.NewClient(0).OpenBlob(blob.ID()); err != nil {
			return out, err
		}
	}
	published := int64(s.preload/clients*clients + clients*s.appends)
	var perClient [clients][]float64
	m0 = cfg.memBefore()
	t2 := time.Now()
	parallel(clients, func(g int) {
		start := time.Now()
		rnd := newRNG(cfg.seed, uint64(200+g))
		buf := make([]byte, s.readSize)
		for i := 0; i < s.reads; i++ {
			v, off := s.window(rnd, published)
			a := time.Now()
			n, err := readers[g].ReadAt(buf, off, core.AtVersion(core.Version(v)))
			if err != nil || n != s.readSize {
				ops.fail("shared-append: read v%d@%d: %d bytes: %v", v, off, n, err)
				continue
			}
			cfg.corrupt(i+1, buf)
			okay := s.checkWindow(buf, off, chunkTag)
			b := time.Now()
			if !okay {
				ops.fail("shared-append: read v%d@%d: content differs from what was appended", v, off)
				continue
			}
			ops.ok()
			perClient[g] = append(perClient[g], ms(b.Sub(a)))
			cfg.rec.add("core", "read_small", a, b, s.readSize)
		}
		elapsed[g] = time.Since(start)
	})
	out.readWall, out.readLat = time.Since(t2), flatten(perClient)
	out.readBytes = int64(clients*s.reads) * s.readSize
	out.sides(elapsed)
	cfg.memAfter(&out.mem, m0, out.readBytes)
	out.wall = out.writeWall + out.readWall

	// The published history must be dense: versions 1..N, none
	// aborted, each where its predecessor ended.
	if err := checkDense(blob, published, s.appendSize); err != nil {
		ops.fail("shared-append: %v", err)
	} else {
		ops.ok()
	}
	return out, nil
}

func checkDense(blob *core.Blob, n, size int64) error {
	hist, err := blob.History()
	if err != nil {
		return fmt.Errorf("history: %w", err)
	}
	if int64(len(hist)) != n {
		return fmt.Errorf("history has %d records, want %d", len(hist), n)
	}
	for i, rec := range hist {
		if int64(rec.Version) != int64(i)+1 || rec.Aborted || rec.Offset != int64(i)*size || rec.Length != size {
			return fmt.Errorf("history record %d is %+v", i, rec)
		}
	}
	return nil
}

func runSharedAppend(cfg *config, r *result) error {
	s := cfg.sizes.sa
	var ops opCounter
	err := runRounds(cfg, r, s.footprint(), s.rounds, func() (roundStats, error) {
		return sharedAppendRound(cfg, s, &ops)
	})
	ops.into(r)
	return err
}
