// harness.go holds what every workload shares: the run configuration,
// the result record, the noise protocol (pre-touch, scratch directory,
// GC fences), seeded payload patterns with their verifiers, and the
// small statistics helpers. See README.md for why each step exists.
package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
)

const (
	kib = 1 << 10
	mib = 1 << 20
)

// config is one run's inputs. Everything a workload does derives from
// seed; seconds sets how many rounds are measured (see roundCount).
type config struct {
	seed    int64
	seconds float64
	sizes   sizes
	// scratch is a directory inside the checkout for store files.
	scratch string
	// rec is non-nil in a traced run.
	rec *recorder
	// simRound is the traced sim-paper pass's last round, kept for the
	// layer staircase so it need not run one of its own.
	simRound *simRoundStats
	// corruptEvery > 0 flips one byte of every n-th read before it is
	// verified: the self-test's proof that a bad read is counted.
	corruptEvery int
	// logf prints progress for humans (stderr in the command).
	logf func(format string, args ...any)
}

// result is what one workload run reports.
type result struct {
	workload  string
	attempted int64
	failed    int64
	firstErr  string // one failure's message, for the log
	// notes are (sample-count and similar) annotations printed beside
	// the metrics for humans; the JSON line carries metrics only.
	notes   map[string]string
	metrics map[string]metric
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newResult(workload string) *result {
	return &result{workload: workload, notes: map[string]string{}, metrics: map[string]metric{}}
}

func (r *result) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) note(name, format string, args ...any) {
	r.notes[name] = fmt.Sprintf(format, args...)
}

// opCounter counts attempted and failed operations across client
// goroutines; firstErr keeps one message for the log.
type opCounter struct {
	attempted atomic.Int64
	failed    atomic.Int64
	firstErr  atomic.Pointer[string]
}

func (c *opCounter) ok() { c.attempted.Add(1) }

func (c *opCounter) fail(format string, args ...any) {
	c.attempted.Add(1)
	c.failed.Add(1)
	msg := fmt.Sprintf(format, args...)
	c.firstErr.CompareAndSwap(nil, &msg)
}

func (c *opCounter) into(r *result) {
	r.attempted += c.attempted.Load()
	r.failed += c.failed.Load()
	if msg := c.firstErr.Load(); msg != nil && r.firstErr == "" {
		r.firstErr = *msg
	}
}

// env is the one real-time environment client goroutines spawn
// through (the repository's vet rule bans bare go statements).
var env = cluster.NewLocal(1, 0)

// parallel runs fn(0..n-1) on n tracked goroutines and waits.
func parallel(n int, fn func(i int)) {
	wg := env.NewWaitGroup()
	for i := 0; i < n; i++ {
		wg.Go(func() { fn(i) })
	}
	wg.Wait()
}

// preTouch writes one byte per 4 KiB page across n bytes of fresh
// memory and drops it. The sandbox backs guest memory lazily; without
// this the first rounds of a run pay the host's page faults.
func preTouch(n int64) {
	if n <= 0 {
		return
	}
	buf := make([]byte, n)
	for i := int64(0); i < n; i += 4 * kib {
		buf[i] = 1
	}
	runtime.KeepAlive(buf)
	buf = nil
	runtime.GC()
}

// scratchDir creates a fresh directory for one round's store files.
func (c *config) scratchDir(name string) (string, error) {
	dir := filepath.Join(c.scratch, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var total int64
	filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			total += fi.Size()
		}
		return nil
	})
	return total
}

// truncateFiles empties every regular file under dir. Rounds call it
// on their store directory just before closing the deployment: closing
// a disk store syncs its log, and on a real file system that would
// write a round's worth of dead bytes to the device after the
// measurement is over.
func truncateFiles(dir string) {
	filepath.Walk(dir, func(p string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			os.Truncate(p, 0)
		}
		return nil
	})
}

// ---------------------------------------------------------------------
// Seeded randomness and payload patterns.

// rng is splitmix64: tiny, seedable, and independent of math/rand's
// version-to-version stream changes, so a seed means the same inputs
// on every toolchain.
type rng struct{ s uint64 }

func newRNG(seed int64, stream uint64) *rng {
	return &rng{s: mix(uint64(seed)) ^ mix(stream+0x9e3779b97f4a7c15)}
}

func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix(r.s)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int64) int64 { return int64(r.next() % uint64(n)) }

// perm returns a seeded permutation of 0..n-1.
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(r.intn(int64(i + 1)))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// fill writes random bytes into b.
func (r *rng) fill(b []byte) {
	for i := 0; i+8 <= len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], r.next())
	}
}

// fillWords writes the word pattern of tag into b (len a multiple of
// 8): word j is mix(tag+j). checkWords verifies a window of the same
// pattern starting at word index first.
func fillWords(b []byte, tag uint64) {
	for j := 0; j+8 <= len(b); j += 8 {
		binary.LittleEndian.PutUint64(b[j:], mix(tag+uint64(j/8)))
	}
}

func checkWords(b []byte, tag uint64, first int) bool {
	for j := 0; j+8 <= len(b); j += 8 {
		if binary.LittleEndian.Uint64(b[j:]) != mix(tag+uint64(first+j/8)) {
			return false
		}
	}
	return true
}

// corrupt flips a byte of b when this is an n-th read (self-test hook).
func (c *config) corrupt(opIndex int, b []byte) {
	if c.corruptEvery > 0 && len(b) > 0 && opIndex%c.corruptEvery == 0 {
		b[len(b)/2] ^= 0x40
	}
}

// ---------------------------------------------------------------------
// Statistics.

// quantile is the q-quantile (0..1) of v by linear interpolation.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func median(v []float64) float64 { return quantile(v, 0.5) }

func sum(v []float64) float64 {
	var t float64
	for _, x := range v {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func mibps(bytes int64, d time.Duration) float64 {
	return float64(bytes) / mib / d.Seconds()
}

// memSample is a runtime.MemStats reading at a phase boundary.
type memSample struct {
	heapInuse  uint64
	totalAlloc uint64
	numGC      uint32
}

func readMem() memSample {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSample{heapInuse: m.HeapInuse, totalAlloc: m.TotalAlloc, numGC: m.NumGC}
}

// memBefore and memAfter bracket a timed phase in a traced run (the
// reads stop the world, so the untraced run skips them).
func (c *config) memBefore() memSample {
	if c.rec == nil {
		return memSample{}
	}
	return readMem()
}

func (c *config) memAfter(g *goStats, before memSample, userBytes int64) {
	if c.rec != nil {
		g.phase(before, readMem(), userBytes)
	}
}

// goStats accumulates the go.* layer metrics over timed phases.
type goStats struct {
	peakInuse  uint64
	allocBytes uint64
	gcCycles   uint32
	userBytes  int64
}

// phase folds one timed phase's before/after samples in. The samples
// are taken outside the timed window.
func (g *goStats) phase(before, after memSample, userBytes int64) {
	if after.heapInuse > g.peakInuse {
		g.peakInuse = after.heapInuse
	}
	g.allocBytes += after.totalAlloc - before.totalAlloc
	g.gcCycles += after.numGC - before.numGC
	g.userBytes += userBytes
}

// add folds another round's figures in.
func (g *goStats) add(o goStats) {
	g.peakInuse = max(g.peakInuse, o.peakInuse)
	g.allocBytes += o.allocBytes
	g.gcCycles += o.gcCycles
	g.userBytes += o.userBytes
}

func (g *goStats) into(r *result) {
	r.set("go.heap_peak_mib", float64(g.peakInuse)/mib, "MiB")
	r.set("go.gc_cycles", float64(g.gcCycles), "count")
	ratio := 0.0
	if g.userBytes > 0 {
		ratio = float64(g.allocBytes) / float64(g.userBytes)
	}
	r.set("go.alloc_bytes_per_user_byte", ratio, "ratio")
}
