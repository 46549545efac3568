// rounds.go runs a workload as a sequence of identical rounds — each a
// fresh deployment, a preload (the set-up), a timed write phase and a
// timed read phase, then a full teardown — and folds the rounds into
// the end-to-end metrics (tracing off) or the client.*, go.* and
// trace.* layer metrics (tracing on).
package main

import (
	"fmt"
	"math"
	"runtime"
	"time"
)

// minRounds is the least number of measured rounds: the set-up time is
// a median over rounds, and the traced pass alternates recording on and
// off between them.
const minRounds = 3

// nominalSeconds is BENCHMARK.json's run_seconds: each workload's
// rounds constant was sized so that, on the box the sizes were fixed on,
// that many rounds hold about this many seconds of timed phases.
const nominalSeconds = 12

// roundCount scales a workload's rounds constant to the run length
// asked for. It depends on the flag alone, never on the clock, so the
// work of a run is fixed and its counts compare across runs and commits.
func roundCount(seconds float64, rounds int) int {
	return max(int(math.Round(float64(rounds)*seconds/nominalSeconds)), minRounds)
}

// runRounds pre-touches footprint bytes, runs and discards one round,
// then runs the measured rounds.
func runRounds(cfg *config, r *result, footprint int64, nominalRounds int, round func() (roundStats, error)) error {
	if cfg.sizes.preTouch {
		t := time.Now()
		preTouch(footprint)
		cfg.logf("%s: pre-touched %d MiB in %.2fs", r.workload, footprint/mib, time.Since(t).Seconds())
	}
	// The discarded round: heap growth and lazy initialisation still
	// cost about a third after the pre-touch. Its operations count
	// towards attempted and failed; its times count for nothing.
	cfg.rec.enable(false)
	if _, err := round(); err != nil {
		return fmt.Errorf("%s: discarded round: %w", r.workload, err)
	}
	rounds := make([]roundStats, roundCount(cfg.seconds, nominalRounds))
	for i := range rounds {
		runtime.GC()
		traced := cfg.rec != nil && i%2 == 0
		cfg.rec.enable(traced)
		st, err := round()
		if err != nil {
			return fmt.Errorf("%s: round %d: %w", r.workload, i+1, err)
		}
		st.traced = traced
		rounds[i] = st
		cfg.logf("%s: round %d of %d: setup %.3fs write %.3fs read %.3fs",
			r.workload, i+1, len(rounds), st.setup.Seconds(), st.writeWall.Seconds(), st.readWall.Seconds())
	}
	cfg.rec.enable(true)
	if cfg.rec == nil {
		endToEnd(r, rounds)
	} else {
		clientLayer(r, rounds)
	}
	return nil
}

// endToEnd reports the six end-to-end metrics: throughputs pooled over
// the rounds (all bytes ÷ all phase time), latencies as the median over
// every measured operation of every round, the set-up time as the
// median round's, and the wall time as the mean round's.
func endToEnd(r *result, rounds []roundStats) {
	var setup, wlat, rlat []float64
	var wall, writeWall, readWall time.Duration
	var writeBytes, readBytes int64
	for _, st := range rounds {
		setup = append(setup, st.setup.Seconds())
		wall += st.wall
		writeWall += st.writeWall
		readWall += st.readWall
		writeBytes += st.writeBytes
		readBytes += st.readBytes
		wlat = append(wlat, st.writeLat...)
		rlat = append(rlat, st.readLat...)
	}
	r.set("setup_s", median(setup), "s")
	r.set("wall_s", wall.Seconds()/float64(len(rounds)), "s")
	r.set("write_mibps", mibps(writeBytes, writeWall), "MiB/s")
	r.set("read_mibps", mibps(readBytes, readWall), "MiB/s")
	r.set("write_p50_ms", median(wlat), "ms")
	r.set("read_p50_ms", median(rlat), "ms")
	r.note("setup_s", "median of %d rounds", len(rounds))
	r.note("wall_s", "mean of %d rounds", len(rounds))
	r.note("write_mibps", "%d MiB in %.2fs over %d rounds", writeBytes/mib, writeWall.Seconds(), len(rounds))
	r.note("read_mibps", "%d MiB in %.2fs over %d rounds", readBytes/mib, readWall.Seconds(), len(rounds))
	r.note("write_p50_ms", "n=%d", len(wlat))
	r.note("read_p50_ms", "n=%d", len(rlat))
}

// clientLayer reports what the traced pass of the workload itself
// yields: tails, client overlap, the Go runtime's share, and the
// recorder's overhead (rounds alternate recording on and off).
func clientLayer(r *result, rounds []roundStats) {
	var wlat, rlat []float64
	var lat [2][2][]float64 // [write|read][off|on]
	var sideMin, sideMax time.Duration
	var mem goStats
	for _, st := range rounds {
		wlat = append(wlat, st.writeLat...)
		rlat = append(rlat, st.readLat...)
		on := 0
		if st.traced {
			on = 1
		}
		lat[0][on] = append(lat[0][on], st.writeLat...)
		lat[1][on] = append(lat[1][on], st.readLat...)
		sideMin += st.sideMin
		sideMax += st.sideMax
		mem.add(st.mem)
	}
	r.set("client.write_p95_ms", quantile(wlat, 0.95), "ms")
	r.set("client.read_p95_ms", quantile(rlat, 0.95), "ms")
	r.note("client.write_p95_ms", "n=%d", len(wlat))
	r.note("client.read_p95_ms", "n=%d", len(rlat))
	r.set("client.overlap_frac", float64(sideMin)/float64(sideMax), "ratio")
	mem.into(r)
	var over []float64
	for k := range lat {
		if len(lat[k][0]) > 0 && len(lat[k][1]) > 0 {
			over = append(over, median(lat[k][1])/median(lat[k][0])-1)
		}
	}
	r.set("trace.overhead_frac", sum(over)/float64(max(len(over), 1)), "ratio")
}
