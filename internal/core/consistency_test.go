// consistency_test.go is a deterministic randomized stress harness for
// the version manager's snapshot guarantees: N concurrent writers issue
// overlapping writes, appends, batched appends and aborts against one
// shared blob in the Sim environment, and afterwards every published
// version is checked against the invariants the paper's versioning
// model promises:
//
//   - versions are dense and monotonic (record i is version i+1, sizes
//     and capacities never shrink);
//   - every published snapshot equals the deterministic replay of its
//     write-record prefix over a naive byte-array model;
//   - aborted tickets never become a readable snapshot (GetVersion,
//     Read, Clone and Latest all refuse them);
//   - AwaitPublished never returns before the publication frontier
//     reaches the awaited version.
//
// The randomness is seeded and consumed only before the simulation
// starts, so each seed drives a reproducible op mix; the invariants are
// checked a-posteriori from the records the version manager hands out,
// which makes them independent of scheduling order. Run under -race
// (see the CI consistency step: go test -run Consistency -race -count=2).
package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// consistencySeeds are the fixed seeds every harness mode runs under.
var consistencySeeds = []int64{1, 2, 3, 5, 8}

const (
	opWrite = iota // random (possibly sparse, unaligned) write
	opAppend
	opBatch // batched append through Blob.Append
	opAbort // ticket requested and aborted before any data moves
)

type consistOp struct {
	kind   int
	off    int64   // opWrite only; opAbort uses -1 (append-style ticket)
	length int64   // opWrite/opAppend/opAbort
	sizes  []int64 // opBatch block lengths
	// cancelAfter > 0 runs the op under a cluster.Ctx that a sibling
	// process cancels after this much virtual time — the cancelling-
	// writer mix. The op then either publishes (cancel lost the race)
	// or fails with ErrCanceled and its ticket must end tombstoned.
	cancelAfter time.Duration
}

// tickets returns how many versions the op consumes.
func (o consistOp) tickets() int {
	if o.kind == opBatch {
		return len(o.sizes)
	}
	return 1
}

// genConsistOps builds each writer's deterministic op list. With
// withCancels, a quarter of the write/append/batch ops are armed with
// a deterministic cancellation delay.
func genConsistOps(rng *rand.Rand, writers, opsPer int, withAborts, withCancels bool, ps int64) [][]consistOp {
	out := make([][]consistOp, writers)
	randLen := func() int64 {
		if rng.Intn(4) == 0 {
			return ps * int64(1+rng.Intn(3)) // page-aligned length
		}
		return 1 + rng.Int63n(5*ps) // unaligned, may straddle pages
	}
	for w := range out {
		ops := make([]consistOp, opsPer)
		for i := range ops {
			k := rng.Intn(100)
			switch {
			case withAborts && k < 25:
				ops[i] = consistOp{kind: opAbort, off: -1, length: randLen()}
			case k < 55:
				off := rng.Int63n(40 * ps) // overlapping and sparse spans
				if rng.Intn(3) == 0 {
					off -= off % ps // sometimes page-aligned
				}
				ops[i] = consistOp{kind: opWrite, off: off, length: randLen()}
			case k < 80:
				ops[i] = consistOp{kind: opAppend, length: randLen()}
			default:
				sizes := make([]int64, 2+rng.Intn(3))
				for j := range sizes {
					sizes[j] = randLen()
				}
				ops[i] = consistOp{kind: opBatch, sizes: sizes}
			}
			if withCancels && ops[i].kind != opAbort && rng.Intn(4) == 0 {
				ops[i].cancelAfter = time.Duration(1+rng.Intn(2000)) * time.Microsecond
			}
		}
		out[w] = ops
	}
	return out
}

// consistData deterministically fills a payload so the replay model can
// regenerate it from (writer, op, block) coordinates alone.
func consistData(seed int64, w, op, blk int, length int64) []byte {
	b := make([]byte, length)
	for i := range b {
		b[i] = byte(int64(i)*7 + seed*131 + int64(w)*31 + int64(op)*17 + int64(blk)*53 + 1)
	}
	return b
}

// published is one writer's record of a version it published.
type publishedVersion struct {
	v    Version
	data []byte
}

// runConsistencySeed drives one seeded run and checks every invariant.
func runConsistencySeed(t *testing.T, seed int64, withAborts, withCancels, overloaded bool) {
	t.Helper()
	const (
		writers = 5
		opsPer  = 8
		ps      = int64(128)
		// tenantRate is deliberately tight when the overload mix is on:
		// writers issue ops back-to-back, so a low per-tenant rate makes
		// a real share of them bounce off admission mid-run.
		tenantRate = 50.0
	)
	tolerant := withAborts || withCancels || overloaded
	rng := rand.New(rand.NewSource(seed))
	plans := genConsistOps(rng, writers, opsPer, withAborts, withCancels, ps)
	totalTickets := 0
	for _, ops := range plans {
		for _, op := range ops {
			totalTickets += op.tickets()
		}
	}
	// AwaitPublished probe targets, consumed by checker processes that
	// race the writers.
	probes := make([]Version, 8)
	for i := range probes {
		probes[i] = Version(1 + rng.Intn(totalTickets))
	}
	sort.Slice(probes, func(i, j int) bool { return probes[i] < probes[j] })

	eng := sim.NewEngine()
	net := simnet.New(eng, simnet.Grid5000(12))
	env := cluster.NewSim(net)
	provs := make([]cluster.NodeID, 11)
	for i := range provs {
		provs[i] = cluster.NodeID(i + 1)
	}
	depOpts := Options{PageSize: ps, ProviderNodes: provs}
	if overloaded {
		depOpts.TenantRate = tenantRate
		depOpts.TenantBurst = 2
	}
	d, err := NewDeployment(env, depOpts)
	if err != nil {
		t.Fatal(err)
	}

	results := make([][]publishedVersion, writers) // written only by writer w
	failures := make([]int, writers)
	rejectedTickets := make([]int, writers) // tickets never taken: ops bounced at admission
	var writersDone atomic.Bool
	var blob BlobID
	eng.Go(func() {
		c0 := d.NewClient(0)
		b0, err := c0.CreateBlob(0)
		if err != nil {
			t.Error(err)
			return
		}
		blob = b0.ID()
		wg := env.NewWaitGroup()
		for w := 0; w < writers; w++ {
			node := cluster.NodeID(w + 1)
			wg.Go(func() {
				c := d.NewClient(node)
				bh, err := c.OpenBlob(blob)
				if err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				for i, op := range plans[w] {
					// The cancelling-writer mix: arm an op scope a
					// sibling process cancels after a deterministic
					// virtual-time delay.
					opts := []WriteOption{}
					if overloaded {
						opts = append(opts, WithTenant(fmt.Sprintf("w%d", w)))
					}
					if op.cancelAfter > 0 {
						ctx, cancel := cluster.WithCancel(env)
						delay := op.cancelAfter
						env.Daemon(func() {
							env.Sleep(delay)
							cancel()
						})
						opts = append(opts, WithCtx(ctx))
					}
					switch op.kind {
					case opAbort:
						// A writer that fails right after its ticket:
						// nothing scattered, nothing published.
						tk, err := ticket1(d.VM.Shard(blob), node, blob, op.off, op.length)
						if err != nil {
							t.Errorf("writer %d op %d: ticket: %v", w, i, err)
							return
						}
						if err := abort1(d.VM.Shard(blob), node, blob, tk.Record.Version); err != nil {
							t.Errorf("writer %d op %d: abort: %v", w, i, err)
							return
						}
					case opWrite, opAppend:
						data := consistData(seed, w, i, 0, op.length)
						attempt := func() (Version, error) {
							if op.kind == opWrite {
								return bh.WriteAt(data, op.off, opts...)
							}
							v, _, err := first(bh.Append(Blocks(data), opts...))
							return v, err
						}
						v, err := attempt()
						if overloaded && errors.Is(err, ErrOverloaded) {
							// Honor the typed backpressure once: sleep
							// the retry-after hint and retry.
							env.Sleep(RetryAfter(err))
							v, err = attempt()
						}
						if errors.Is(err, ErrOverloaded) {
							// Rejected at admission: no ticket was taken,
							// nothing to clean up.
							rejectedTickets[w]++
							failures[w]++
							continue
						}
						if err != nil {
							// Only abort fallout (a boundary merge that
							// raced a tombstone) or this op's own
							// cancellation may fail a write.
							if !tolerant {
								t.Errorf("writer %d op %d: %v", w, i, err)
								return
							}
							if op.cancelAfter == 0 && errors.Is(err, ErrCanceled) {
								t.Errorf("writer %d op %d: canceled without a ctx: %v", w, i, err)
								return
							}
							failures[w]++
							continue
						}
						results[w] = append(results[w], publishedVersion{v: v, data: data})
					case opBatch:
						blocks := make([]AppendBlock, len(op.sizes))
						for j, sz := range op.sizes {
							blocks[j] = AppendBlock{Data: consistData(seed, w, i, j, sz)}
						}
						vs, _, err := bh.Append(blocks, opts...)
						if overloaded && errors.Is(err, ErrOverloaded) {
							env.Sleep(RetryAfter(err))
							vs, _, err = bh.Append(blocks, opts...)
						}
						if errors.Is(err, ErrOverloaded) {
							// The whole batch bounced at admission —
							// one charge per call, zero tickets taken.
							rejectedTickets[w] += len(blocks)
							failures[w] += len(blocks)
							continue
						}
						for j, v := range vs {
							results[w] = append(results[w], publishedVersion{v: v, data: blocks[j].Data})
						}
						if err != nil {
							if !tolerant {
								t.Errorf("writer %d op %d: batch: %v", w, i, err)
								return
							}
							failures[w] += len(blocks) - len(vs)
						}
					}
				}
			})
		}
		// AwaitPublished probes run concurrently with the writers: the
		// call may block, but once it returns the frontier must have
		// reached the awaited version. A probe target may never be
		// assigned when an op is rejected at admission or canceled
		// before its ticket, so the retry loop gives up once the
		// writers are done.
		probeWG := env.NewWaitGroup()
		for pi := 0; pi < 2; pi++ {
			targets := probes[pi*len(probes)/2 : (pi+1)*len(probes)/2]
			node := cluster.NodeID(6 + pi)
			probeWG.Go(func() {
				for _, v := range targets {
					awaited := false
					for !awaited {
						if err := d.VM.Shard(blob).awaitPublished(bg, node, blob, v); err == nil {
							awaited = true
							break
						}
						if writersDone.Load() {
							break // v was never assigned
						}
						env.Sleep(time.Millisecond) // ticket not assigned yet
					}
					if !awaited {
						continue
					}
					pub, err := frontier(d.VM.Shard(blob), node, blob)
					if err != nil {
						t.Error(err)
						return
					}
					if pub < v {
						t.Errorf("AwaitPublished(%d) returned with frontier at %d", v, pub)
					}
				}
			})
		}
		wg.Wait()
		writersDone.Store(true)
		probeWG.Wait()
		total := 0
		for _, f := range failures {
			total += f
		}
		if !tolerant && total != 0 {
			t.Errorf("%d writes failed in an abort-free run", total)
		}
		if total > 0 {
			t.Logf("seed %d: %d writes failed as abort/cancel/overload fallout", seed, total)
		}
		if overloaded {
			// The typed-backpressure invariants: rejections actually
			// happened (the mix is meaningful), every rejected op left
			// zero tickets behind, and the publication frontier covers
			// every ticket that WAS taken — no wedge on rejected work.
			rejected := 0
			for _, r := range rejectedTickets {
				rejected += r
			}
			if rejected == 0 {
				t.Errorf("seed %d: overload mix rejected nothing; tighten tenantRate", seed)
			}
			recs, err := d.VM.Shard(blob).records(0, blob)
			if err != nil {
				t.Error(err)
			} else if !withCancels && len(recs) != totalTickets-rejected {
				// Exact ticket accounting: admission rejections are the
				// only way a planned op takes no ticket. (A cancel racing
				// the ticket request can also suppress one, so with
				// cancels in the mix the count is only an upper bound.)
				t.Errorf("rejected ops leaked tickets: %d records, want %d (%d planned - %d rejected)",
					len(recs), totalTickets-rejected, totalTickets, rejected)
			} else if withCancels && len(recs) > totalTickets-rejected {
				t.Errorf("rejected ops leaked tickets: %d records, want <= %d (%d planned - %d rejected)",
					len(recs), totalTickets-rejected, totalTickets, rejected)
			}
			pub, err := frontier(d.VM.Shard(blob), 0, blob)
			if err != nil {
				t.Error(err)
			} else if int(pub) != len(recs) {
				t.Errorf("frontier wedged at %d with %d records", pub, len(recs))
			}
			lim := d.Admission
			if lim == nil {
				t.Error("overloaded deployment has no admission limiter")
			} else {
				var admitted, rej uint64
				for _, st := range lim.Stats() {
					admitted += st.Admitted
					rej += st.Rejected
					if st.Inflight != 0 {
						t.Errorf("tenant %s still has %d in-flight after drain", st.Tenant, st.Inflight)
					}
				}
				if rej == 0 || admitted == 0 {
					t.Errorf("limiter counters implausible: admitted %d rejected %d", admitted, rej)
				}
			}
		}
		verifyConsistency(t, d, blob, totalTickets, results, tolerant)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// verifyConsistency checks the harness invariants from the version
// manager's records and versioned reads. Runs inside the simulation.
func verifyConsistency(t *testing.T, d *Deployment, blob BlobID, totalTickets int, results [][]publishedVersion, withAborts bool) {
	t.Helper()
	versionData := make(map[Version][]byte)
	for _, rs := range results {
		for _, r := range rs {
			if _, dup := versionData[r.v]; dup {
				t.Errorf("version %d published twice", r.v)
			}
			versionData[r.v] = r.data
		}
	}

	// Every assigned ticket resolved: the frontier reached the last
	// version (a leaked pending ticket would leave it short). The
	// ticket count may run below the plan when ops are rejected or
	// canceled before taking a ticket, but never above it.
	pub, err := frontier(d.VM.Shard(blob), 0, blob)
	if err != nil {
		t.Fatal(err)
	}
	svm := d.VM.Shard(blob)
	svm.mu.Lock()
	assigned := len(svm.blobs[blob].records)
	svm.mu.Unlock()
	if int(pub) != assigned {
		t.Fatalf("frontier at %d with %d tickets assigned: ticket leaked", pub, assigned)
	}
	recs, err := d.VM.Shard(blob).records(0, blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) > totalTickets {
		t.Fatalf("%d records exceed the planned %d tickets", len(recs), totalTickets)
	}
	if !withAborts && len(recs) != totalTickets {
		t.Fatalf("%d records, want %d", len(recs), totalTickets)
	}

	// Dense, monotonic history.
	prevSize := int64(0)
	for i, rec := range recs {
		if rec.Version != Version(i+1) {
			t.Fatalf("record %d holds version %d: history not dense", i, rec.Version)
		}
		if rec.SizeAfter < prevSize {
			t.Fatalf("v%d shrank the blob: %d -> %d", rec.Version, prevSize, rec.SizeAfter)
		}
		if rec.capAfter != capacityPages(rec.SizeAfter, d.Opts.PageSize) {
			t.Fatalf("v%d capacity %d inconsistent with size %d", rec.Version, rec.capAfter, rec.SizeAfter)
		}
		prevSize = rec.SizeAfter
		if data, ok := versionData[rec.Version]; ok {
			if rec.Aborted {
				t.Fatalf("v%d was published by a writer but is tombstoned", rec.Version)
			}
			if rec.Length != int64(len(data)) {
				t.Fatalf("v%d length %d, writer sent %d bytes", rec.Version, rec.Length, len(data))
			}
		} else if !rec.Aborted {
			t.Fatalf("v%d is published but no writer owns it", rec.Version)
		}
	}

	rdr := openB(t, d.NewClient(0), blob)

	// Aborted tickets never become readable, clonable, or latest.
	for _, rec := range recs {
		if !rec.Aborted {
			continue
		}
		if _, err := d.VM.Shard(blob).GetVersion(0, blob, rec.Version); !errors.Is(err, ErrAborted) {
			t.Fatalf("GetVersion(aborted v%d) = %v, want ErrAborted", rec.Version, err)
		}
		if _, err := rdr.ReadAt(make([]byte, 1), 0, AtVersion(rec.Version)); !errors.Is(err, ErrAborted) {
			t.Fatalf("Read(aborted v%d) = %v, want ErrAborted", rec.Version, err)
		}
		if _, err := d.VM.Shard(blob).clone(0, blob, rec.Version); !errors.Is(err, ErrAborted) {
			t.Fatalf("Clone(aborted v%d) = %v, want ErrAborted", rec.Version, err)
		}
	}
	if rec, ok, err := d.VM.Shard(blob).latestRecord(0, blob); err != nil {
		t.Fatal(err)
	} else if ok && rec.Aborted {
		t.Fatalf("Latest resolved to tombstoned v%d", rec.Version)
	}

	// Snapshot replay. Without aborts every snapshot must equal the
	// model; with aborts the replay holds for the abort-free prefix,
	// and every published version must still read its own span back
	// verbatim (a snapshot always contains its own write).
	firstAbort := Version(totalTickets + 1)
	for _, rec := range recs {
		if rec.Aborted {
			firstAbort = rec.Version
			break
		}
	}
	model := []byte{}
	for _, rec := range recs {
		v := rec.Version
		if v < firstAbort {
			model = applyModelWrite(model, rec.Offset, versionData[v], rec.SizeAfter)
			buf := make([]byte, rec.SizeAfter)
			n, err := rdr.ReadAt(buf, 0, AtVersion(v))
			if err != nil {
				t.Fatalf("read full snapshot v%d: %v", v, err)
			}
			if n != rec.SizeAfter {
				t.Fatalf("snapshot v%d: read %d of %d bytes", v, n, rec.SizeAfter)
			}
			if !bytes.Equal(buf, model) {
				t.Fatalf("snapshot v%d diverges from the replay of records 1..%d (first diff at %d)",
					v, v, firstDiff(buf, model))
			}
		} else if data, ok := versionData[v]; ok {
			buf := make([]byte, len(data))
			if _, err := rdr.ReadAt(buf, rec.Offset, AtVersion(v)); err != nil {
				t.Fatalf("read own span of v%d: %v", v, err)
			}
			if !bytes.Equal(buf, data) {
				t.Fatalf("v%d does not contain its own write (first diff at %d)", v, firstDiff(buf, data))
			}
		}
	}
	if !withAborts && int(firstAbort) != totalTickets+1 {
		t.Fatalf("abort-free run produced tombstone at v%d", firstAbort)
	}
}

// applyModelWrite replays one write record onto the byte-array model.
func applyModelWrite(model []byte, off int64, data []byte, sizeAfter int64) []byte {
	for int64(len(model)) < sizeAfter {
		model = append(model, 0)
	}
	copy(model[off:], data)
	return model
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

// TestConsistencyRandomConcurrentWriters: overlapping unaligned
// writes, appends and batched appends with no failures — every
// published snapshot must equal the deterministic replay.
func TestConsistencyRandomConcurrentWriters(t *testing.T) {
	for _, seed := range consistencySeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runConsistencySeed(t, seed, false, false, false)
		})
	}
}

// TestConsistencyRandomAbortingWriters mixes in writer failures that
// tombstone tickets before any data moves: aborted versions must stay
// unreadable while the surviving history keeps its guarantees.
func TestConsistencyRandomAbortingWriters(t *testing.T) {
	for _, seed := range consistencySeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runConsistencySeed(t, seed, true, false, false)
		})
	}
}

// runConsistencySeedSharded drives the harness against a multi-shard
// version-manager tier: writers spread over several blobs whose ids
// land on different shards, so the four invariants are checked per
// blob while the shards advance their publication frontiers
// independently.
func runConsistencySeedSharded(t *testing.T, seed int64, withAborts bool, shards, blobsN int) {
	t.Helper()
	const (
		writers = 6
		opsPer  = 8
		ps      = int64(128)
	)
	rng := rand.New(rand.NewSource(seed))
	plans := genConsistOps(rng, writers, opsPer, withAborts, false, ps)
	// Writer w drives blob w mod blobsN; per-blob ticket totals bound
	// the per-blob verification.
	blobOf := func(w int) int { return w % blobsN }
	ticketsPerBlob := make([]int, blobsN)
	for w, ops := range plans {
		for _, op := range ops {
			ticketsPerBlob[blobOf(w)] += op.tickets()
		}
	}

	eng := sim.NewEngine()
	net := simnet.New(eng, simnet.Grid5000(12))
	env := cluster.NewSim(net)
	provs := make([]cluster.NodeID, 11)
	for i := range provs {
		provs[i] = cluster.NodeID(i + 1)
	}
	vmNodes := make([]cluster.NodeID, shards)
	for i := range vmNodes {
		vmNodes[i] = cluster.NodeID(i)
	}
	d, err := NewDeployment(env, Options{PageSize: ps, ProviderNodes: provs, VMNodes: vmNodes})
	if err != nil {
		t.Fatal(err)
	}

	results := make([][]publishedVersion, writers) // written only by writer w
	failures := make([]int, writers)
	var writersDone atomic.Bool
	blobs := make([]BlobID, blobsN)
	eng.Go(func() {
		c0 := d.NewClient(0)
		shardsHit := map[int]bool{}
		for i := range blobs {
			b, err := c0.CreateBlob(0)
			if err != nil {
				t.Error(err)
				return
			}
			blobs[i] = b.ID()
			shardsHit[d.VM.ShardIndex(b.ID())] = true
		}
		if len(shardsHit) < 2 {
			t.Errorf("%d blobs landed on %d shard(s); the multi-shard harness needs >= 2", blobsN, len(shardsHit))
			return
		}
		wg := env.NewWaitGroup()
		for w := 0; w < writers; w++ {
			node := cluster.NodeID(w + 1)
			blob := blobs[blobOf(w)]
			wg.Go(func() {
				c := d.NewClient(node)
				bh, err := c.OpenBlob(blob)
				if err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				for i, op := range plans[w] {
					switch op.kind {
					case opAbort:
						tk, err := ticket1(d.VM.Shard(blob), node, blob, op.off, op.length)
						if err != nil {
							t.Errorf("writer %d op %d: ticket: %v", w, i, err)
							return
						}
						if err := abort1(d.VM.Shard(blob), node, blob, tk.Record.Version); err != nil {
							t.Errorf("writer %d op %d: abort: %v", w, i, err)
							return
						}
					case opWrite, opAppend:
						data := consistData(seed, w, i, 0, op.length)
						var v Version
						var err error
						if op.kind == opWrite {
							v, err = bh.WriteAt(data, op.off)
						} else {
							v, _, err = first(bh.Append(Blocks(data)))
						}
						if err != nil {
							if !withAborts {
								t.Errorf("writer %d op %d: %v", w, i, err)
								return
							}
							failures[w]++
							continue
						}
						results[w] = append(results[w], publishedVersion{v: v, data: data})
					case opBatch:
						blocks := make([]AppendBlock, len(op.sizes))
						for j, sz := range op.sizes {
							blocks[j] = AppendBlock{Data: consistData(seed, w, i, j, sz)}
						}
						vs, _, err := bh.Append(blocks)
						for j, v := range vs {
							results[w] = append(results[w], publishedVersion{v: v, data: blocks[j].Data})
						}
						if err != nil {
							if !withAborts {
								t.Errorf("writer %d op %d: batch: %v", w, i, err)
								return
							}
							failures[w] += len(blocks) - len(vs)
						}
					}
				}
			})
		}
		// AwaitPublished probes per blob, racing the writers.
		probeWG := env.NewWaitGroup()
		for bi, blob := range blobs {
			if ticketsPerBlob[bi] == 0 {
				continue
			}
			node := cluster.NodeID(7 + bi%4)
			targets := []Version{1, Version(1 + ticketsPerBlob[bi]/2), Version(ticketsPerBlob[bi])}
			probeWG.Go(func() {
				for _, v := range targets {
					awaited := false
					for !awaited {
						if err := d.VM.Shard(blob).awaitPublished(bg, node, blob, v); err == nil {
							awaited = true
							break
						}
						if writersDone.Load() {
							break // v was never assigned
						}
						env.Sleep(time.Millisecond)
					}
					if !awaited {
						continue
					}
					pub, err := frontier(d.VM.Shard(blob), node, blob)
					if err != nil {
						t.Error(err)
						return
					}
					if pub < v {
						t.Errorf("blob %d: AwaitPublished(%d) returned with frontier at %d", blob, v, pub)
					}
				}
			})
		}
		wg.Wait()
		writersDone.Store(true)
		probeWG.Wait()
		total := 0
		for _, f := range failures {
			total += f
		}
		if !withAborts && total != 0 {
			t.Errorf("%d writes failed in an abort-free run", total)
		}
		for bi, blob := range blobs {
			var blobResults [][]publishedVersion
			for w := 0; w < writers; w++ {
				if blobOf(w) == bi {
					blobResults = append(blobResults, results[w])
				}
			}
			verifyConsistency(t, d, blob, ticketsPerBlob[bi], blobResults, withAborts)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestConsistencyMultiShard re-runs the randomized harness against a
// 2-shard version-manager tier with concurrent writers spread over
// blobs on different shards: every per-blob invariant (dense history,
// replay equality, aborted-unreadable, AwaitPublished frontier) must
// hold exactly as in the single-shard runs.
func TestConsistencyMultiShard(t *testing.T) {
	for _, seed := range consistencySeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runConsistencySeedSharded(t, seed, false, 2, 4)
			runConsistencySeedSharded(t, seed, true, 2, 4)
		})
	}
}

// TestConsistencyMultiShardWide pushes the shard count above the blob
// spread pattern (3 shards, 5 blobs) on two seeds: shard ownership is
// uneven and ids are sparse, which is exactly where a dense-range scan
// or a routing mistake would surface.
func TestConsistencyMultiShardWide(t *testing.T) {
	for _, seed := range consistencySeeds[:2] {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runConsistencySeedSharded(t, seed, true, 3, 5)
		})
	}
}

// TestConsistencyCancellingWriters mixes op-scoped cancellation into
// the randomized harness: a quarter of the ops run under a ctx a
// sibling process cancels after a deterministic virtual-time delay.
// Whatever the race outcome — the op published, or failed with
// ErrCanceled and its ticket was tombstoned — all four invariants
// (dense history, replay equality, aborted-unreadable, AwaitPublished
// frontier) must hold, and no ticket may leak.
func TestConsistencyCancellingWriters(t *testing.T) {
	for _, seed := range consistencySeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runConsistencySeed(t, seed, false, true, false)
		})
	}
}

// TestConsistencyCancellingAndAbortingWriters layers the cancel mix on
// top of the abort mix — the most hostile single-blob schedule the
// harness can produce.
func TestConsistencyCancellingAndAbortingWriters(t *testing.T) {
	for _, seed := range consistencySeeds[:2] {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runConsistencySeed(t, seed, true, true, false)
		})
	}
}

// TestConsistencyOverloadedWriters runs the harness with per-tenant
// admission enabled and a rate tight enough that writers bounce off
// ErrOverloaded mid-batch. Rejected ops must leave zero version
// tickets behind (the publication frontier never waits on rejected
// work), honored retry-after hints must eventually admit, and the
// surviving history upholds all four invariants.
func TestConsistencyOverloadedWriters(t *testing.T) {
	for _, seed := range consistencySeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runConsistencySeed(t, seed, false, false, true)
		})
	}
}

// TestConsistencyOverloadedAndCancellingWriters layers the overload
// mix on the cancel mix: admission rejections, honored retry hints and
// mid-flight cancellations interleave, and the invariants still hold.
func TestConsistencyOverloadedAndCancellingWriters(t *testing.T) {
	for _, seed := range consistencySeeds[:2] {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runConsistencySeed(t, seed, false, true, true)
		})
	}
}
