// mixedrw.go is the mixed-rw workload: one client overwrites single
// pages of a preloaded blob (each a new version) while another reads
// larger windows of the latest version. The same core layers as
// shared-append, used so that a read-side gain bought with write-side
// cost shows as one of the four numbers falling.
package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

type mixedSizes struct {
	providers int
	pageSize  int64
	blobSize  int64
	loadBlock int64 // preload append size
	readSize  int64
	writes    int // timed single-page overwrites
	reads     int // timed reads, concurrent with the writes
	rounds    int // measured rounds in a run of nominalSeconds
}

func (s mixedSizes) footprint() int64 {
	return 2*s.blobSize + 2*int64(s.writes)*s.pageSize
}

// pageTag is the word-pattern tag of page p after its k-th overwrite
// (k = 0 is the preload).
func pageTag(seed int64, p int64, k int) uint64 {
	return mix(uint64(seed)+1) ^ mix(uint64(p)<<24|uint64(k))
}

func mixedRWRound(cfg *config, s mixedSizes, ops *opCounter) (roundStats, error) {
	var out roundStats
	t0 := time.Now()
	dep, err := newRAMDeployment(s.providers, s.pageSize)
	if err != nil {
		return out, err
	}
	defer dep.Close()
	wblob, err := dep.NewClient(0).CreateBlob(s.pageSize)
	if err != nil {
		return out, err
	}
	pages := s.blobSize / s.pageSize
	block := make([]byte, s.loadBlock)
	for off := int64(0); off < s.blobSize; off += s.loadBlock {
		for p := int64(0); p < s.loadBlock/s.pageSize; p++ {
			fillWords(block[p*s.pageSize:(p+1)*s.pageSize], pageTag(cfg.seed, off/s.pageSize+p, 0))
		}
		if _, _, err := wblob.Append(core.Blocks(block)); err != nil {
			ops.fail("mixed-rw: preload at %d: %v", off, err)
			return out, fmt.Errorf("mixed-rw: preload: %w", err)
		}
		ops.ok()
	}
	block = nil
	rblob, err := dep.NewClient(0).OpenBlob(wblob.ID())
	if err != nil {
		return out, err
	}
	// Reading the preload back checks it and leaves the reader's
	// metadata cache holding the whole tree: reads of the latest
	// version fit that cache, and only the overwrites' new nodes miss.
	verifyBlob(cfg.seed, s, rblob, ops, func(int64) int { return 0 })
	// The overwrite schedule is fixed by the seed: write k replaces
	// page target[k] with that page's next tag. writesTo[p] lists the
	// writes aimed at page p in order, which is what a concurrent
	// reader needs to recognise any state the page may be in.
	rnd := newRNG(cfg.seed, 300)
	target := make([]int64, s.writes)
	writesTo := make(map[int64][]int, s.writes)
	for k := range target {
		target[k] = rnd.intn(pages)
		writesTo[target[k]] = append(writesTo[target[k]], k)
	}
	out.setup = time.Since(t0)
	runtime.GC()

	// issued counts overwrites started: a reader may see write k only
	// if k < issued at the time the read returns.
	var issued atomic.Int64
	var wlat, rlat []float64
	var elapsed [clients]time.Duration
	m0 := cfg.memBefore()
	t1 := time.Now()
	parallel(clients, func(g int) {
		start := time.Now()
		defer func() { elapsed[g] = time.Since(start) }()
		if g == 0 {
			buf := make([]byte, s.pageSize)
			nth := make(map[int64]int, len(writesTo))
			for k, p := range target {
				nth[p]++
				fillWords(buf, pageTag(cfg.seed, p, nth[p]))
				issued.Store(int64(k + 1))
				a := time.Now()
				_, err := wblob.WriteAt(buf, p*s.pageSize)
				b := time.Now()
				if err != nil {
					ops.fail("mixed-rw: write %d at page %d: %v", k, p, err)
					continue
				}
				ops.ok()
				wlat = append(wlat, ms(b.Sub(a)))
				cfg.rec.add("core", "write_page", a, b, s.pageSize)
			}
			return
		}
		rr := newRNG(cfg.seed, 301)
		buf := make([]byte, s.readSize)
		span := s.readSize / s.pageSize
		for i := 0; i < s.reads; i++ {
			first := rr.intn(pages - span + 1)
			a := time.Now()
			n, err := rblob.ReadAt(buf, first*s.pageSize)
			if err != nil || n != s.readSize {
				ops.fail("mixed-rw: read at page %d: %d bytes: %v", first, n, err)
				continue
			}
			cfg.corrupt(i+1, buf)
			seen := issued.Load()
			okay := true
			for p := first; p < first+span && okay; p++ {
				okay = pageInSomeState(cfg.seed, buf[(p-first)*s.pageSize:(p-first+1)*s.pageSize], p, writesTo[p], seen)
			}
			b := time.Now()
			if !okay {
				ops.fail("mixed-rw: read at page %d: a page holds bytes no write put there", first)
				continue
			}
			ops.ok()
			rlat = append(rlat, ms(b.Sub(a)))
			cfg.rec.add("core", "read_window", a, b, s.readSize)
		}
	})
	// The sides overlap: each side's time is its own elapsed time, and
	// the round's is the longer side's.
	out.wall = time.Since(t1)
	out.writeLat, out.readLat = wlat, rlat
	out.writeWall, out.readWall = elapsed[0], elapsed[1]
	out.writeBytes = int64(s.writes) * s.pageSize
	out.readBytes = int64(s.reads) * s.readSize
	out.sides(elapsed)
	cfg.memAfter(&out.mem, m0, out.writeBytes+out.readBytes)

	// Afterwards the blob must be exactly the preload with every
	// overwrite applied in order.
	verifyBlob(cfg.seed, s, rblob, ops, func(p int64) int { return len(writesTo[p]) })
	return out, nil
}

// verifyBlob reads the whole blob at its latest version and checks that
// every page p holds its nth(p)-th overwrite (0 = the preload). Each
// read counts as an operation.
func verifyBlob(seed int64, s mixedSizes, blob *core.Blob, ops *opCounter, nth func(p int64) int) {
	buf := make([]byte, s.loadBlock)
	for off := int64(0); off < s.blobSize; off += s.loadBlock {
		n, err := blob.ReadAt(buf, off)
		if err != nil || n != s.loadBlock {
			ops.fail("mixed-rw: read-back at %d: %d bytes: %v", off, n, err)
			continue
		}
		okay := true
		for p := off / s.pageSize; p < (off+s.loadBlock)/s.pageSize && okay; p++ {
			at := (p - off/s.pageSize) * s.pageSize
			okay = checkWords(buf[at:at+s.pageSize], pageTag(seed, p, nth(p)), 0)
		}
		if !okay {
			ops.fail("mixed-rw: read-back at %d: a page is not at its last overwrite", off)
			continue
		}
		ops.ok()
	}
}

// pageInSomeState reports whether page p's bytes are its preload or one
// of the overwrites aimed at it that had started by the time seen was
// sampled.
func pageInSomeState(seed int64, b []byte, p int64, writes []int, seen int64) bool {
	for nth := 0; nth <= len(writes); nth++ {
		if nth > 0 && int64(writes[nth-1]) >= seen {
			break
		}
		if checkWords(b[:8], pageTag(seed, p, nth), 0) {
			return checkWords(b, pageTag(seed, p, nth), 0)
		}
	}
	return false
}

func runMixedRW(cfg *config, r *result) error {
	s := cfg.sizes.mixed
	var ops opCounter
	err := runRounds(cfg, r, s.footprint(), s.rounds, func() (roundStats, error) {
		return mixedRWRound(cfg, s, &ops)
	})
	ops.into(r)
	return err
}
