package workload

import (
	"math/rand"

	"numacs/internal/colstore"
	"numacs/internal/core"
	"numacs/internal/metrics"
)

// BurstSpec is a periodic burst window for an open-loop tenant: starting at
// Phase, every Period the tenant's arrival rate multiplies by Factor for
// Duration. The zero value means no bursts.
type BurstSpec struct {
	// Period and Duration bound the repeating window (virtual seconds).
	Period, Duration float64
	// Factor multiplies the arrival rate inside the window.
	Factor float64
	// Phase offsets the first window from t=0.
	Phase float64
}

// factor returns the rate multiplier at a virtual time.
func (b BurstSpec) factor(now float64) float64 {
	if b.Period <= 0 || b.Duration <= 0 || b.Factor <= 0 {
		return 1
	}
	t := now - b.Phase
	if t < 0 {
		return 1
	}
	for t >= b.Period {
		t -= b.Period
	}
	if t < b.Duration {
		return b.Factor
	}
	return 1
}

// TenantLoad describes one tenant of the multi-tenant generator. A tenant
// can be open-loop (Rate > 0: statements arrive on a clock regardless of
// completions — the "millions of users" regime where offered load does not
// back off under slowdown), closed-loop (Clients > 0: each client issues,
// waits for completion, thinks, reissues), or both.
type TenantLoad struct {
	// Name is the admission tenant; Weight mirrors the tenant's admission
	// weight (informational here — the controller owns fairness).
	Name   string
	Weight float64

	// Rate is the open-loop arrival rate in statements per virtual second.
	Rate float64
	// Burst periodically multiplies Rate.
	Burst BurstSpec

	// Clients is the closed-loop client count; ThinkTime is each client's
	// pause between a statement's completion (or shed) and its next issue.
	Clients   int
	ThinkTime float64

	// Statement shape.
	Selectivity float64
	Parallel    bool
	Strategy    core.Strategy
	// Chooser picks the queried column (UniformChoice when nil).
	Chooser Chooser
}

// TenantLoadStats is the per-tenant outcome of a generator run.
type TenantLoadStats struct {
	// Name echoes the tenant.
	Name string
	// Issued counts statements submitted, Completed the ones that finished,
	// Shed the ones dropped by admission-control load shedding.
	Issued, Completed, Shed uint64
	// Lat records end-to-end statement latencies (admission wait included
	// when the engine has a controller).
	Lat *metrics.Histogram
}

// tenantLoadState is the generator-internal per-tenant state.
type tenantLoadState struct {
	spec  TenantLoad
	stats TenantLoadStats
	carry float64   // fractional open-loop arrivals
	due   []float64 // closed-loop reissue times (think timers)
	seq   int       // issue sequence, for home-socket spreading

	// The tenant's statement callbacks, made once (bind): an open-loop
	// statement counts its outcome, and a closed-loop one also rearms its
	// client's think timer.
	openDone, closedDone func(latency float64)
	openShed, closedShed func()
}

// bind makes ts's statement callbacks; a closed-loop one rearms its
// client's think timer on g's engine clock.
func (ts *tenantLoadState) bind(g *MultiTenant) {
	rearm := func() { ts.due = append(ts.due, g.engine.Sim.Now()+ts.spec.ThinkTime) }
	ts.openDone = func(lat float64) {
		ts.stats.Completed++
		ts.stats.Lat.Record(lat)
	}
	ts.openShed = func() { ts.stats.Shed++ }
	ts.closedDone = func(lat float64) {
		ts.openDone(lat)
		rearm()
	}
	ts.closedShed = func() {
		ts.openShed()
		rearm()
	}
}

// MultiTenantConfig configures the generator.
type MultiTenantConfig struct {
	// Tenants lists the tenant mix; order is the deterministic issue order
	// within a tick.
	Tenants []TenantLoad
	// Seed drives the generator's private RNG.
	Seed int64
}

// MultiTenant drives a multi-tenant statement mix as a simulation actor:
// open-loop arrivals (with bursts) and closed-loop clients (with think
// times) per tenant, each statement tagged with its tenant for admission
// control. Register it with engine.Sim.AddActor and call Start.
type MultiTenant struct {
	cfg     MultiTenantConfig
	engine  *core.Engine
	table   *colstore.Table
	columns []string
	rng     *rand.Rand
	per     []*tenantLoadState
}

// NewMultiTenant creates the generator over a placed table.
func NewMultiTenant(e *core.Engine, table *colstore.Table, cfg MultiTenantConfig) *MultiTenant {
	g := &MultiTenant{
		cfg:     cfg,
		engine:  e,
		table:   table,
		columns: table.ColumnNames(),
		rng:     rand.New(rand.NewSource(cfg.Seed + 97)),
	}
	for _, spec := range cfg.Tenants {
		if spec.Chooser == nil {
			spec.Chooser = UniformChoice{}
		}
		ts := &tenantLoadState{
			spec:  spec,
			stats: TenantLoadStats{Name: spec.Name, Lat: &metrics.Histogram{}},
		}
		ts.bind(g)
		g.per = append(g.per, ts)
	}
	return g
}

// Start admits every closed-loop client's first statement.
func (g *MultiTenant) Start() {
	for _, ts := range g.per {
		for i := 0; i < ts.spec.Clients; i++ {
			g.issue(ts, true)
		}
	}
}

// Stats returns the per-tenant outcomes, in tenant order.
func (g *MultiTenant) Stats() []TenantLoadStats {
	out := make([]TenantLoadStats, len(g.per))
	for i, ts := range g.per {
		out[i] = ts.stats
	}
	return out
}

// ResetStats zeroes the per-tenant counters and histograms (end of warmup).
func (g *MultiTenant) ResetStats() {
	for _, ts := range g.per {
		ts.stats.Issued = 0
		ts.stats.Completed = 0
		ts.stats.Shed = 0
		ts.stats.Lat.Reset()
	}
}

// Tick implements sim.Actor: accrue open-loop arrivals (burst-scaled) and
// fire due closed-loop reissues.
func (g *MultiTenant) Tick(now float64) {
	step := g.engine.Sim.StepLen()
	for _, ts := range g.per {
		if ts.spec.Rate > 0 {
			ts.carry += ts.spec.Rate * ts.spec.Burst.factor(now) * step
			n := int(ts.carry)
			ts.carry -= float64(n)
			for i := 0; i < n; i++ {
				g.issue(ts, false)
			}
		}
		// Fire think timers that came due (kept sorted by construction:
		// completions only ever append now+ThinkTime, which is monotone).
		fired := 0
		for fired < len(ts.due) && ts.due[fired] <= now {
			fired++
		}
		if fired > 0 {
			ts.due = ts.due[fired:]
			for i := 0; i < fired; i++ {
				g.issue(ts, true)
			}
		}
	}
}

// issue submits one statement of the tenant; closed statements rearm their
// client's think timer on completion or shed.
func (g *MultiTenant) issue(ts *tenantLoadState, closed bool) {
	ts.stats.Issued++
	ts.seq++
	onDone, onShed := ts.openDone, ts.openShed
	if closed {
		onDone, onShed = ts.closedDone, ts.closedShed
	}
	col := g.columns[ts.spec.Chooser.Pick(g.rng, len(g.columns))]
	g.engine.Submit(&core.Query{
		Table:       g.table,
		Column:      col,
		Selectivity: ts.spec.Selectivity,
		Parallel:    ts.spec.Parallel,
		Strategy:    ts.spec.Strategy,
		HomeSocket:  ts.seq % g.engine.Machine.Sockets,
		Tenant:      ts.spec.Name,
		OnDone:      onDone,
		OnShed:      onShed,
	})
}
