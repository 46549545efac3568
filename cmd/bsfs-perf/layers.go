// layers.go is the traced run's layer staircase. The harness cannot yet
// see inside an end-to-end operation, so it issues the same seeded
// operation stream at each boundary down a stack and reports a layer's
// self time as its stair's median minus the next stair's, and it reads
// counters from each layer's public statistics at the same boundaries.
// The staircase's work is fixed and does not depend on the workload
// being traced: every traced run prints every layer metric.
package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/pagestore"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/store"
)

// layerSizes fixes the staircase's operation counts.
type layerSizes struct {
	tcp       tcpSizes // the file stairs: rpcnet, bsfs, core
	pages     int      // pagestore and store stairs, pages of tcp.pageSize
	small     saSizes  // the small-block stairs: core, vm, dht
	versions  int      // vm stair
	dhtBatch  int      // keys per BatchPut (a small append's tree nodes)
	dhtOps    int
	ringOps   int
	simProcs  int // sim.Engine probe: processes x sleeps = events
	simSleeps int
	transfers int // simnet probe: concurrent transfers through the core link
}

func runLayers(cfg *config, r *result) error {
	var ops opCounter
	defer ops.into(r)
	steps := []struct {
		name string
		run  func(*config, *result, *opCounter) error
	}{
		{"file stairs", fileStairs},
		{"pagestore stair", pagestoreStair},
		{"store stair", storeStair},
		{"small-block stairs", smallStairs},
		{"sim probes", simProbes},
		{"sim round", simLayer},
	}
	for _, st := range steps {
		runtime.GC()
		t := time.Now()
		if err := st.run(cfg, r, &ops); err != nil {
			return fmt.Errorf("%s: %w", st.name, err)
		}
		cfg.logf("layers: %s in %.2fs", st.name, time.Since(t).Seconds())
	}
	return nil
}

// selfTime is a stair's median minus the next stair's, floored at zero:
// a negative difference means the layer costs less than the staircase
// can resolve.
func selfTime(upper, lower []float64) float64 {
	return max(median(upper)-median(lower), 0)
}

// fileStairs runs the tcp-files round at the rpcnet, fsapi and core
// boundaries.
func fileStairs(cfg *config, r *result, ops *opCounter) error {
	s := cfg.sizes.layers.tcp
	pat := newTCPPatterns(cfg.seed, s)
	var st [3]tcpRoundStats
	for i, level := range []stair{stairRPC, stairFS, stairCore} {
		var err error
		if st[i], err = tcpFilesRound(cfg, s, level, pat, ops); err != nil {
			return err
		}
		runtime.GC()
	}
	blocks := float64((s.fileSize + s.blockSize - 1) / s.blockSize)
	r.set("rpcnet.put_self_ms", selfTime(st[0].writeLat, st[1].writeLat), "ms/op")
	r.set("rpcnet.get_self_ms", selfTime(st[0].readLat, st[1].readLat), "ms/op")
	r.set("bsfs.write_self_ms", selfTime(st[1].writeLat, st[2].writeLat), "ms/op")
	r.set("bsfs.read_self_ms", selfTime(st[1].readLat, st[2].readLat), "ms/op")
	r.set("core.append_ms", median(st[2].writeLat)/blocks, "ms/op")
	r.set("core.read_ms", median(st[2].readLat)/blocks, "ms/op")
	for _, n := range []string{"rpcnet.put_self_ms", "bsfs.write_self_ms", "core.append_ms"} {
		r.note(n, "n=%d per stair, %d MiB files", len(st[0].writeLat), s.fileSize/mib)
	}
	for _, n := range []string{"rpcnet.get_self_ms", "bsfs.read_self_ms", "core.read_ms"} {
		r.note(n, "n=%d per stair, %d MiB files", len(st[0].readLat), s.fileSize/mib)
	}
	top := st[0]
	r.set("pagestore.hit_ratio", float64(top.hits)/float64(max(top.hits+top.misses, 1)), "ratio")
	r.set("pagestore.evictions", float64(top.evictions), "count")
	r.set("store.write_amp", float64(top.storeBytes)/float64(top.userBytes), "ratio")
	return nil
}

// pagestoreStair times Store.Put and Store.GetInto on pages of the
// tcp-files size over a disk backend, with the cache half the pages:
// gets of the newest quarter hit, gets of the oldest quarter fault from
// the log and evict.
func pagestoreStair(cfg *config, r *result, ops *opCounter) error {
	s := cfg.sizes.layers
	dir, err := cfg.scratchDir("pagestore")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ps, err := pagestore.Open(pagestore.Config{MemCapacity: int64(s.pages/2) * s.tcp.pageSize, Spec: "disk:" + dir})
	if err != nil {
		return err
	}
	defer func() {
		truncateFiles(dir)
		ps.Close()
	}()
	page := make([]byte, s.tcp.pageSize)
	key := func(i int) string { return "p/" + strconv.Itoa(i) }
	tag := func(i int) uint64 { return mix(uint64(cfg.seed)+2) ^ mix(uint64(i)) }
	var put, hit, miss []float64
	for i := 0; i < s.pages; i++ {
		fillWords(page, tag(i))
		a := time.Now()
		err := ps.Put(key(i), page)
		b := time.Now()
		if err != nil {
			ops.fail("pagestore: put %d: %v", i, err)
			continue
		}
		ops.ok()
		put = append(put, float64(b.Sub(a))/float64(time.Microsecond))
		cfg.rec.add("pagestore", "put", a, b, s.tcp.pageSize)
	}
	// Persist everything, as a provider's flusher would: clean pages
	// are evictable, and the cache drops to its capacity.
	for {
		keys, _ := ps.TakeDirty(64 * mib)
		if len(keys) == 0 {
			break
		}
		if err := ps.CommitFlush(keys); err != nil {
			return err
		}
	}
	get := func(i int, name string) (float64, bool) {
		a := time.Now()
		data, _, err := ps.GetInto(key(i), func(int64) []byte { return page })
		b := time.Now()
		if err != nil || !checkWords(data, tag(i), 0) || int64(len(data)) != s.tcp.pageSize {
			ops.fail("pagestore: get %d: %d bytes: %v", i, len(data), err)
			return 0, false
		}
		ops.ok()
		cfg.rec.add("pagestore", name, a, b, s.tcp.pageSize)
		return float64(b.Sub(a)) / float64(time.Microsecond), true
	}
	for i := s.pages - 1; i >= s.pages-s.pages/4; i-- {
		if us, ok := get(i, "get_hit"); ok {
			hit = append(hit, us)
		}
	}
	for i := 0; i < s.pages/4; i++ {
		if us, ok := get(i, "get_miss"); ok {
			miss = append(miss, us)
		}
	}
	stats := ps.Stats()
	if stats.Hits != uint64(len(hit)) || stats.Misses != uint64(len(miss)) {
		ops.fail("pagestore: %d hits and %d misses, expected %d and %d", stats.Hits, stats.Misses, len(hit), len(miss))
	}
	r.set("pagestore.put_us_per_page", median(put), "us")
	r.set("pagestore.get_hit_us_per_page", median(hit), "us")
	r.set("pagestore.get_miss_us_per_page", median(miss), "us")
	r.note("pagestore.put_us_per_page", "n=%d", len(put))
	r.note("pagestore.get_hit_us_per_page", "n=%d", len(hit))
	r.note("pagestore.get_miss_us_per_page", "n=%d", len(miss))
	return nil
}

// storeStair times the disk backend alone: Put, Sync after every
// sixteenth of the pages, Get, and reopening the log.
func storeStair(cfg *config, r *result, ops *opCounter) error {
	s := cfg.sizes.layers
	dir, err := cfg.scratchDir("store")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	be, err := store.Open("disk:" + dir)
	if err != nil {
		return err
	}
	page := make([]byte, s.tcp.pageSize)
	key := func(i int) string { return "p/" + strconv.Itoa(i) }
	tag := func(i int) uint64 { return mix(uint64(cfg.seed)+3) ^ mix(uint64(i)) }
	var putTime, getTime time.Duration
	var syncs []float64
	for i := 0; i < s.pages; i++ {
		fillWords(page, tag(i))
		a := time.Now()
		err := be.Put(key(i), page, s.tcp.pageSize, false)
		b := time.Now()
		if err != nil {
			ops.fail("store: put %d: %v", i, err)
			continue
		}
		ops.ok()
		putTime += b.Sub(a)
		cfg.rec.add("store", "put", a, b, s.tcp.pageSize)
		if (i+1)%max(s.pages/16, 1) == 0 {
			a := time.Now()
			err := be.Sync()
			b := time.Now()
			if err != nil {
				ops.fail("store: sync: %v", err)
				continue
			}
			ops.ok()
			syncs = append(syncs, ms(b.Sub(a)))
			cfg.rec.add("store", "sync", a, b, 0)
		}
	}
	for _, i := range newRNG(cfg.seed, 500).perm(s.pages) {
		a := time.Now()
		data, err := be.Get(key(i))
		b := time.Now()
		if err != nil || int64(len(data)) != s.tcp.pageSize || !checkWords(data, tag(i), 0) {
			ops.fail("store: get %d: %d bytes: %v", i, len(data), err)
			continue
		}
		ops.ok()
		getTime += b.Sub(a)
		cfg.rec.add("store", "get", a, b, s.tcp.pageSize)
	}
	if err := be.Close(); err != nil {
		return err
	}
	a := time.Now()
	be, err = store.Open("disk:" + dir)
	b := time.Now()
	if err != nil {
		return err
	}
	cfg.rec.add("store", "reopen", a, b, int64(s.pages)*s.tcp.pageSize)
	if be.Len() != s.pages {
		ops.fail("store: reopened log holds %d pages, want %d", be.Len(), s.pages)
	} else {
		ops.ok()
	}
	truncateFiles(dir)
	be.Close()
	total := int64(s.pages) * s.tcp.pageSize
	r.set("store.disk_put_mibps", mibps(total, putTime), "MiB/s")
	r.set("store.disk_get_mibps", mibps(total, getTime), "MiB/s")
	r.set("store.disk_sync_ms", median(syncs), "ms")
	r.set("store.reopen_pages_per_s", float64(s.pages)/b.Sub(a).Seconds(), "pages/s")
	r.note("store.disk_put_mibps", "n=%d pages", s.pages)
	r.note("store.disk_get_mibps", "n=%d pages", s.pages)
	r.note("store.disk_sync_ms", "n=%d", len(syncs))
	return nil
}

// smallStairs runs the shared-append stack: core.Blob small appends and
// versioned reads, then the version manager's ticket and publish alone,
// then the metadata DHT alone, then the ring lookup alone.
func smallStairs(cfg *config, r *result, ops *opCounter) error {
	ls := cfg.sizes.layers
	s := ls.small
	dep, err := newRAMDeployment(s.providers, s.pageSize)
	if err != nil {
		return err
	}
	defer dep.Close()

	// core.Blob: one client, so the allocation counts are its own.
	blob, err := dep.NewClient(0).CreateBlob(s.pageSize)
	if err != nil {
		return err
	}
	payload := make([]byte, s.appendSize)
	tags := make([]uint64, s.appends)
	var appendLat, readLat []float64
	keys0 := dep.Meta.TotalKeys()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < s.appends; i++ {
		tags[i] = saTag(cfg.seed, 9, i)
		fillWords(payload, tags[i])
		a := time.Now()
		vs, off, err := blob.Append(core.Blocks(payload))
		b := time.Now()
		if err != nil || len(vs) != 1 || off != int64(i)*s.appendSize {
			ops.fail("core: small append %d: versions %v at %d: %v", i, vs, off, err)
			continue
		}
		ops.ok()
		appendLat = append(appendLat, ms(b.Sub(a)))
		cfg.rec.add("core", "append_small", a, b, s.appendSize)
	}
	runtime.ReadMemStats(&m1)
	appendAllocs := float64(m1.Mallocs-m0.Mallocs) / float64(s.appends)
	keysPerAppend := float64(dep.Meta.TotalKeys()-keys0) / float64(s.appends)

	reader, err := dep.NewClient(0).OpenBlob(blob.ID())
	if err != nil {
		return err
	}
	rnd := newRNG(cfg.seed, 600)
	buf := make([]byte, s.readSize)
	runtime.ReadMemStats(&m0)
	for i := 0; i < s.reads; i++ {
		v, off := s.window(rnd, int64(s.appends))
		a := time.Now()
		n, err := reader.ReadAt(buf, off, core.AtVersion(core.Version(v)))
		b := time.Now()
		if err != nil || n != s.readSize || !s.checkWindow(buf, off, tags) {
			ops.fail("core: small read v%d@%d: %d bytes: %v", v, off, n, err)
			continue
		}
		ops.ok()
		readLat = append(readLat, ms(b.Sub(a)))
		cfg.rec.add("core", "read_small", a, b, s.readSize)
	}
	runtime.ReadMemStats(&m1)
	readAllocs := float64(m1.Mallocs-m0.Mallocs) / float64(s.reads)
	r.set("core.append_small_ms", median(appendLat), "ms/op")
	r.set("core.read_small_ms", median(readLat), "ms/op")
	r.set("core.append_allocs_per_op", appendAllocs, "count")
	r.set("core.read_allocs_per_op", readAllocs, "count")
	r.set("dht.keys_per_append", keysPerAppend, "count")
	r.note("core.append_small_ms", "n=%d", len(appendLat))
	r.note("core.read_small_ms", "n=%d", len(readLat))

	// Version manager alone: a ticket and its publication per version,
	// on the shard that owns a fresh blob, with no data or metadata.
	vblob, err := dep.NewClient(0).CreateBlob(s.pageSize)
	if err != nil {
		return err
	}
	shard := dep.VM.Shard(vblob.ID())
	var vmLat []float64
	for i := 0; i < ls.versions; i++ {
		a := time.Now()
		ts, err := shard.RequestTickets(0, vblob.ID(), []core.WriteIntent{{Off: -1, Length: s.appendSize}}, core.Version(i))
		if err == nil && len(ts) == 1 {
			err = shard.PublishBatch(cluster.Background(), 0, vblob.ID(), []core.Version{ts[0].Record.Version})
		}
		b := time.Now()
		if err != nil || len(ts) != 1 || ts[0].Record.Version != core.Version(i+1) {
			ops.fail("vm: ticket and publish %d: %v", i, err)
			continue
		}
		ops.ok()
		vmLat = append(vmLat, float64(b.Sub(a))/float64(time.Microsecond))
		cfg.rec.add("vm", "ticket_publish", a, b, 0)
	}
	if v, _, err := vblob.Latest(); err != nil || v != core.Version(ls.versions) {
		ops.fail("vm: frontier at %d after %d publications: %v", v, ls.versions, err)
	}
	r.set("vm.ticket_publish_us", median(vmLat), "us")
	r.note("vm.ticket_publish_us", "n=%d", len(vmLat))

	// Metadata DHT alone: batches the size of a small append's tree
	// nodes, values the size of an encoded node.
	dc := dep.Meta.NewClient(dep.Env, 0)
	val := make([]byte, 48)
	newRNG(cfg.seed, 601).fill(val)
	dkey := func(i, j int) string { return "probe/" + strconv.Itoa(i) + "/" + strconv.Itoa(j) }
	var putLat, getLat []float64
	for i := 0; i < ls.dhtOps; i++ {
		kvs := make(map[string][]byte, ls.dhtBatch)
		for j := 0; j < ls.dhtBatch; j++ {
			kvs[dkey(i, j)] = val
		}
		a := time.Now()
		err := dc.BatchPut(kvs)
		b := time.Now()
		if err != nil {
			ops.fail("dht: batch put %d: %v", i, err)
			continue
		}
		ops.ok()
		putLat = append(putLat, float64(b.Sub(a))/float64(time.Microsecond)/float64(ls.dhtBatch))
		cfg.rec.add("dht", "batch_put", a, b, int64(ls.dhtBatch*len(val)))
	}
	for i := 0; i < ls.dhtOps; i++ {
		k := dkey(int(rnd.intn(int64(ls.dhtOps))), int(rnd.intn(int64(ls.dhtBatch))))
		a := time.Now()
		got, err := dc.Get(k)
		b := time.Now()
		if err != nil || !bytes.Equal(got, val) {
			ops.fail("dht: get %s: %v", k, err)
			continue
		}
		ops.ok()
		getLat = append(getLat, float64(b.Sub(a))/float64(time.Microsecond))
		cfg.rec.add("dht", "get", a, b, int64(len(val)))
	}
	r.set("dht.batchput_us_per_key", median(putLat), "us")
	r.set("dht.get_us_per_key", median(getLat), "us")
	r.note("dht.batchput_us_per_key", "n=%d batches of %d", len(putLat), ls.dhtBatch)
	r.note("dht.get_us_per_key", "n=%d", len(getLat))

	// Ring lookup alone, timed a hundred at a time: one lookup is
	// shorter than two clock reads.
	ring := dht.NewRing(nodeRange(24), 32, 1)
	const group = 100
	ringKeys := make([]string, group)
	for i := range ringKeys {
		ringKeys[i] = dkey(int(rnd.intn(1<<20)), i)
	}
	var ringLat []float64
	var owners int
	for i := 0; i < ls.ringOps/group; i++ {
		a := time.Now()
		for _, k := range ringKeys {
			owners += len(ring.LookupN(k, 1))
		}
		b := time.Now()
		ringLat = append(ringLat, float64(b.Sub(a))/group)
		cfg.rec.add("dht", "ring_lookup_x100", a, b, 0)
	}
	if owners != len(ringLat)*group {
		ops.fail("dht: ring lookups returned %d owners for %d keys", owners, len(ringLat)*group)
	} else {
		ops.ok()
	}
	r.set("dht.ring_lookup_ns", median(ringLat), "ns")
	r.note("dht.ring_lookup_ns", "n=%d groups of %d", len(ringLat), group)
	return nil
}

// simProbes times the simulator's two engines on known work: processes
// that only sleep (a known event count), and concurrent cross-rack
// transfers that all share the core link (the max-min solver's worst
// case).
func simProbes(cfg *config, r *result, ops *opCounter) error {
	ls := cfg.sizes.layers
	eng := sim.NewEngine()
	for p := 0; p < ls.simProcs; p++ {
		eng.Go(func() {
			for i := 0; i < ls.simSleeps; i++ {
				eng.Sleep(time.Duration(1+(p+i)%7) * time.Millisecond)
			}
		})
	}
	a := time.Now()
	err := eng.Run()
	b := time.Now()
	if err != nil {
		ops.fail("sim: engine probe: %v", err)
	} else {
		ops.ok()
	}
	events := ls.simProcs * ls.simSleeps
	cfg.rec.add("sim", "engine_probe", a, b, 0)
	r.set("sim.ns_per_event", float64(b.Sub(a))/float64(events), "ns")
	r.note("sim.ns_per_event", "%d events", events)

	eng = sim.NewEngine()
	net := simnet.New(eng, simnet.Grid5000(60))
	const size = 4 * mib // above the small-transfer cutoff: the solver runs
	for i := 0; i < ls.transfers; i++ {
		from, to := simnet.NodeID(i%30), simnet.NodeID(30+(i*7)%30)
		eng.Go(func() { net.Transfer(net.PathUnicast(from, to), size) })
	}
	a = time.Now()
	err = eng.Run()
	b = time.Now()
	moved := net.Stats().BytesCore
	if err != nil || moved != int64(ls.transfers)*size {
		ops.fail("simnet: transfer probe moved %d bytes: %v", moved, err)
	} else {
		ops.ok()
	}
	cfg.rec.add("simnet", "transfer_probe", a, b, moved)
	r.set("simnet.us_per_transfer", float64(b.Sub(a))/float64(time.Microsecond)/float64(ls.transfers), "us")
	r.note("simnet.us_per_transfer", "%d concurrent transfers", ls.transfers)
	return nil
}

// simLayer reports the sim-paper round's wall-clock split and the
// model's own outputs. When sim-paper is the workload being traced its
// last round is used; otherwise one round runs here.
func simLayer(cfg *config, r *result, ops *opCounter) error {
	st := cfg.simRound
	if st == nil {
		round, err := simPaperRound(cfg, cfg.sizes.sim, ops)
		if err != nil {
			return err
		}
		st = &round
	}
	r.set("sim.write_phase_s", st.writePhase.Seconds(), "s")
	r.set("sim.read_phase_s", st.readPhase.Seconds(), "s")
	r.set("mapreduce.grep_wall_s", st.grepWall.Seconds(), "s")
	r.set("sim.virtual_write_mibps", st.virtualWriteMiBps, "MiB/s")
	r.set("sim.virtual_read_mibps", st.virtualReadMiBps, "MiB/s")
	r.set("mapreduce.virtual_grep_s", st.virtualGrep.Seconds(), "s")
	r.set("simnet.bytes_moved", float64(st.bytesMoved), "count")
	return nil
}
