// serve.go runs the heavy-traffic serving scenario (X8): an open-loop
// multi-tenant load generator (internal/traffic) drives a BSFS core
// deployment at 1x/5x/10x of its design load with per-tenant
// token-bucket admission on and off. The measured quantities are the
// open-loop latency distribution (p50/p90/p99, arrival to completion —
// downstream queueing included) and goodput (completions within an SLO
// per second of offered window).
//
// The version manager's modeled per-RPC occupancy (VMServiceTime) is
// the deliberate bottleneck: past saturation an open-loop arrival
// process grows the queue without bound, so without admission the 10x
// point shows collapsing SLO goodput and an exploding tail. With
// admission, over-rate arrivals are rejected at op entry with
// ErrOverloaded — before any version ticket exists — so the admitted
// work keeps completing within the SLO and goodput degrades gracefully
// instead of collapsing. That comparison is the X8 assertion.

package bench

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/traffic"
)

// serveOpts parameterizes one heavy-traffic serving run.
type serveOpts struct {
	// tenants is the simulated tenant population (default 1000).
	tenants int
	// baseRate is the 1x aggregate offered load in ops/sec (default
	// 400 — comfortably inside the modeled version-manager capacity, so
	// 5x approaches saturation and 10x is past it).
	baseRate float64
	// multiple scales the offered load: Rate = Multiple * BaseRate
	// (default 1).
	multiple float64
	// duration is the offered window of virtual time (default 6s —
	// long enough for an unadmitted overload's queueing delay to blow
	// through the SLO); in-flight work is always drained past it.
	duration time.Duration
	// admission enables per-tenant token-bucket admission at op entry.
	admission bool
	// admitHeadroom scales the per-tenant admitted rate over the fair
	// share: rate = AdmitHeadroom * BaseRate / Tenants (default 2.5 —
	// above the 1x fair share, still safely inside the modeled serving
	// capacity, so admitted work never saturates the bottleneck).
	admitHeadroom float64
	// readFraction / SharedFraction shape the op mix (defaults 0.5 and
	// 0.5): reads vs appends, shared blob vs the tenant's private blob.
	readFraction   float64
	sharedFraction float64
	// slo is the completion-latency bound defining goodput (default
	// 250ms).
	slo time.Duration
	// vmServiceTime is the modeled per-RPC occupancy of the version
	// manager — the serving bottleneck (default 200µs).
	vmServiceTime time.Duration
	// blockSize sizes each synthetic append and read (default 64 KB).
	blockSize int64
	// nodes sizes the simulated cluster (default 12).
	nodes int
	// seed drives the arrival schedule (default 1).
	seed int64
}

func (o *serveOpts) fillDefaults() {
	if o.tenants <= 0 {
		o.tenants = 1000
	}
	if o.baseRate <= 0 {
		o.baseRate = 400
	}
	if o.multiple <= 0 {
		o.multiple = 1
	}
	if o.duration <= 0 {
		o.duration = 6 * time.Second
	}
	if o.admitHeadroom <= 0 {
		o.admitHeadroom = 2.5
	}
	if o.readFraction == 0 {
		o.readFraction = 0.5
	}
	if o.sharedFraction == 0 {
		o.sharedFraction = 0.5
	}
	if o.slo <= 0 {
		o.slo = 250 * time.Millisecond
	}
	if o.vmServiceTime <= 0 {
		o.vmServiceTime = 200 * time.Microsecond
	}
	if o.blockSize <= 0 {
		o.blockSize = 64 * KB
	}
	if o.nodes <= 0 {
		o.nodes = 12
	}
	if o.seed == 0 {
		o.seed = 1
	}
}

// serveResult is the outcome of one serving run.
type serveResult struct {
	// point summarizes the run for tables and the JSON schema: Clients
	// is the tenant population, Duration the makespan (offered window
	// plus drain), P50/P90/P99 the open-loop latency quantiles.
	point Point
	// report is the raw generator report (offered/completed/rejected/
	// failed counts, in-flight high-water mark, latency samples).
	report *traffic.Report
	// goodputPerSec is SLO-compliant completions per second of offered
	// window.
	goodputPerSec float64
	// admittedStats snapshots the per-tenant admission counters (empty
	// without admission).
	admittedStats []traffic.TenantStats
}

// runServe is one X8 point: an open-loop Poisson arrival process over
// Tenants tenants offers Multiple * BaseRate ops/sec of mixed
// appends/reads against one shared blob and per-tenant private blobs,
// with or without token-bucket admission. The run fails if any
// operation errors for a reason other than admission rejection, or if
// the publication frontier is left wedged after the drain.
func runServe(opts serveOpts) (serveResult, error) {
	opts.fillDefaults()
	eng := sim.NewEngine()
	net := simnet.New(eng, simnet.Grid5000(opts.nodes))
	env := cluster.NewSim(net)
	provs := make([]cluster.NodeID, opts.nodes-1)
	for i := range provs {
		provs[i] = cluster.NodeID(i + 1)
	}
	coreOpts := core.Options{
		PageSize:      64 * KB,
		ProviderNodes: provs,
		VMServiceTime: opts.vmServiceTime,
	}
	if opts.admission {
		coreOpts.TenantRate = opts.admitHeadroom * opts.baseRate / float64(opts.tenants)
		coreOpts.TenantBurst = 2
	}
	d, err := core.NewDeployment(env, coreOpts)
	if err != nil {
		return serveResult{}, err
	}
	var (
		rep      *traffic.Report
		makespan time.Duration
		runErr   error
	)
	eng.Go(func() {
		// Setup (unmeasured, untenanted): the shared blob plus one
		// private blob per tenant, each seeded with one synthetic block
		// so reads have a snapshot to address.
		c0 := d.NewClient(0)
		seed := func(c *core.Client) (*core.Blob, error) {
			b, err := c.CreateBlob(0)
			if err != nil {
				return nil, err
			}
			if _, err := b.WriteAt(nil, 0, core.Synthetic(opts.blockSize)); err != nil {
				return nil, err
			}
			return b, nil
		}
		shared, err := seed(c0)
		if err != nil {
			runErr = err
			return
		}
		// Tenants dispatch through per-node clients (round-robin over
		// the provider nodes), sharing cached metadata per node.
		clients := make([]*core.Client, len(provs))
		sharedH := make([]*core.Blob, len(provs))
		for i, n := range provs {
			clients[i] = d.NewClient(n)
			bh, err := clients[i].OpenBlob(shared.ID())
			if err != nil {
				runErr = err
				return
			}
			sharedH[i] = bh
		}
		private := make([]*core.Blob, opts.tenants)
		for t := range private {
			bh, err := seed(clients[t%len(clients)])
			if err != nil {
				runErr = err
				return
			}
			private[t] = bh
		}

		start := env.Now()
		rep = traffic.Run(env, traffic.GenConfig{
			Tenants:        opts.tenants,
			Rate:           opts.multiple * opts.baseRate,
			Duration:       opts.duration,
			ReadFraction:   opts.readFraction,
			SharedFraction: opts.sharedFraction,
			Seed:           opts.seed,
		}, func(op traffic.Op) error {
			bh := private[op.TenantIndex]
			if op.Shared {
				bh = sharedH[op.TenantIndex%len(sharedH)]
			}
			if op.Kind == traffic.OpRead {
				_, err := bh.ReadAt(nil, 0, core.Synthetic(opts.blockSize), core.WithTenant(op.Tenant))
				return err
			}
			_, _, err := bh.Append(core.SyntheticBlocks(opts.blockSize), core.WithTenant(op.Tenant))
			return err
		})
		makespan = env.Now() - start

		// Frontier check: every rejected op must have left no ticket
		// behind, so after the drain the shared blob's newest record is
		// published (or aborted) — Latest never hangs and the awaited
		// frontier equals the record count.
		recs, err := shared.History()
		if err != nil {
			runErr = err
			return
		}
		if len(recs) > 0 {
			if err := shared.AwaitPublished(recs[len(recs)-1].Version); err != nil {
				runErr = fmt.Errorf("bench: x8 frontier wedged: %w", err)
				return
			}
		}
	})
	if err := eng.Run(); err != nil && runErr == nil {
		runErr = err
	}
	if runErr == nil && rep != nil && rep.FirstErr != nil {
		runErr = fmt.Errorf("bench: x8 op failed: %w", rep.FirstErr)
	}
	if rep == nil {
		rep = &traffic.Report{}
	}
	mode := "open"
	if opts.admission {
		mode = "admit"
	}
	res := serveResult{
		report: rep,
		point: Point{
			experiment: fmt.Sprintf("X8-%.0fx-%s", opts.multiple, mode),
			kind:       "bsfs",
			clients:    opts.tenants,
			duration:   makespan,
			p50:        rep.P50,
			p90:        rep.P90,
			p99:        rep.P99,
		},
		goodputPerSec: rep.Goodput(opts.duration, opts.slo),
	}
	if lim := d.Admission; lim != nil {
		res.admittedStats = lim.Stats()
	}
	return res, runErr
}

// runServeSweep runs the full X8 grid — every load multiple with
// admission off and on — and asserts graceful degradation: at the
// highest multiple, admission must deliver at least the SLO goodput of
// the open (unadmitted) run, and the admitted tail must stay within
// the SLO.
func runServeSweep(opts serveOpts, multiples []float64) (open, admitted []serveResult, err error) {
	if len(multiples) == 0 {
		multiples = []float64{1, 5, 10}
	}
	for _, m := range multiples {
		o := opts
		o.multiple = m
		o.admission = false
		ro, err := runServe(o)
		if err != nil {
			return open, admitted, fmt.Errorf("bench: x8 %gx open: %w", m, err)
		}
		open = append(open, ro)
		a := opts
		a.multiple = m
		a.admission = true
		ra, err := runServe(a)
		if err != nil {
			return open, admitted, fmt.Errorf("bench: x8 %gx admitted: %w", m, err)
		}
		admitted = append(admitted, ra)
	}
	last := len(multiples) - 1
	o := opts
	o.fillDefaults()
	if admitted[last].goodputPerSec < open[last].goodputPerSec {
		err = fmt.Errorf("bench: x8 admission lost goodput at %gx: %.1f < %.1f ops/s",
			multiples[last], admitted[last].goodputPerSec, open[last].goodputPerSec)
	} else if admitted[last].report.P99 > o.slo {
		err = fmt.Errorf("bench: x8 admitted p99 %s exceeds SLO %s at %gx",
			admitted[last].report.P99, o.slo, multiples[last])
	}
	return open, admitted, err
}
