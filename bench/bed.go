package main

import (
	"math"
	"math/rand"
	"time"

	"numacs/internal/adaptive"
	"numacs/internal/colstore"
	"numacs/internal/core"
	"numacs/internal/join"
	"numacs/internal/plan"
	"numacs/internal/sharedscan"
	"numacs/internal/sim"
	"numacs/internal/topology"
	"numacs/internal/workload"
)

// bed is one built workload: the engine, the layers the workload enabled,
// and the benchmark's own load generators and statement accounting. All of
// it runs on the simulation's single goroutine.
type bed struct {
	e    *core.Engine
	seed int64
	tr   *tracer // nil on untraced runs

	reg     *sharedscan.Registry
	writers *workload.Writers
	placer  *adaptive.Placer
	tenants []*tenant

	// resolved has one entry per statement issued, set when it completed or
	// was shed; a second resolution counts as a double.
	resolved                            []bool
	attempted, completed, shed, doubles uint64
	lat, starLat                        []float64 // simulated seconds
}

// newBed builds a workload from its seed. A traced bed registers a probe
// after each actor so the tracer can split step time by actor.
func newBed(def *workloadDef, seed int64, traced bool) *bed {
	b := &bed{seed: seed}
	if traced {
		b.tr = newTracer()
	}
	b.e = core.NewWithStep(topology.FourSocketIvyBridge(), seed, step)
	b.probe("sched.tick_share")
	def.build(b)
	return b
}

// probe registers a traced bed's step-time probe: the time since the
// previous probe (or the step start) is charged to span.
func (b *bed) probe(span string) {
	if b.tr != nil {
		b.e.Sim.AddActor(b.tr.probe(span))
	}
}

// addActor registers a simulation actor, followed by its probe.
func (b *bed) addActor(a sim.Actor, span string) {
	b.e.Sim.AddActor(a)
	b.probe(span)
}

// begin opens the accounting of one statement and returns its id.
func (b *bed) begin() int {
	b.resolved = append(b.resolved, false)
	b.attempted++
	return len(b.resolved) - 1
}

// resolve closes a statement's accounting; false means it was already closed.
func (b *bed) resolve(id int) bool {
	if b.resolved[id] {
		b.doubles++
		return false
	}
	b.resolved[id] = true
	return true
}

// finish records a completed statement and its simulated latency.
func (b *bed) finish(id int, lat float64) {
	if b.resolve(id) {
		b.completed++
		b.lat = append(b.lat, lat)
	}
}

// drop records a statement shed by admission control.
func (b *bed) drop(id int) {
	if b.resolve(id) {
		b.shed++
	}
}

// inFlight counts statements issued and not yet resolved.
func (b *bed) inFlight() uint64 {
	n := uint64(0)
	for _, r := range b.resolved {
		if !r {
			n++
		}
	}
	return n
}

// resetWindow starts the measured window: statements still in flight are
// attempts of the window, everything else restarts from zero.
func (b *bed) resetWindow() {
	b.attempted = b.inFlight()
	b.completed, b.shed, b.doubles = 0, 0, 0
	b.lat, b.starLat = b.lat[:0], b.starLat[:0]
	for _, t := range b.tenants {
		t.lat = t.lat[:0]
	}
	if b.tr != nil {
		b.tr.reset()
	}
}

// submit hands a statement to the engine; a tracing bed times the call and
// keeps the statement's shape for the planning replay.
func (b *bed) submit(q *core.Query) {
	if b.tr == nil || !b.tr.on {
		b.e.Submit(q)
		return
	}
	if len(b.tr.shapes) < maxShapes {
		b.tr.shapes = append(b.tr.shapes, shape{stmt: plan.Statement{
			Table: q.Table, Column: q.Column, Selectivity: q.Selectivity,
			UseIndex: q.UseIndex, Parallel: q.Parallel,
		}})
	}
	t0 := time.Now()
	b.e.Submit(q)
	b.tr.submits = append(b.tr.submits, micros(time.Since(t0)))
}

// star submits a star-join statement, timed like submit while tracing.
func (b *bed) star(s join.StarSpec) {
	if b.tr == nil || !b.tr.on {
		join.ExecuteStar(b.e, s)
		return
	}
	if len(b.tr.shapes) < maxShapes {
		b.tr.shapes = append(b.tr.shapes, shape{star: &s})
	}
	t0 := time.Now()
	join.ExecuteStar(b.e, s)
	b.tr.stars = append(b.tr.stars, micros(time.Since(t0)))
}

// scanLoad is a closed-loop scan client population: each client issues a
// range-predicate scan on a column picked by choose, waits for it, thinks for
// an exponentially distributed time of mean think (none when 0), and issues
// the next.
type scanLoad struct {
	table    *colstore.Table
	choose   workload.Chooser
	sel      float64
	think    float64
	strategy core.Strategy
	clients  int
}

// closedLoop starts the clients of l.
func (b *bed) closedLoop(l scanLoad) {
	cols := l.table.ColumnNames()
	rng := rand.New(rand.NewSource(b.seed + 101))
	sockets := b.e.Machine.Sockets
	var issue func(client int)
	next := func(client int) {
		if l.think == 0 {
			issue(client)
			return
		}
		// A pure delay: one unit of work at a rate cap of one unit per second.
		b.e.Sim.StartFlow(&sim.Flow{
			Remaining: rng.ExpFloat64() * l.think, RateCap: 1,
			OnDone: func() { issue(client) },
		})
	}
	issue = func(client int) {
		id := b.begin()
		b.submit(&core.Query{
			Table: l.table, Column: cols[l.choose.Pick(rng, len(cols))], Selectivity: l.sel,
			Parallel: true, Strategy: l.strategy, HomeSocket: client % sockets,
			OnDone: func(lat float64) { b.finish(id, lat); next(client) },
			OnShed: func() { b.drop(id); next(client) },
		})
	}
	for i := 0; i < l.clients; i++ {
		issue(i)
	}
}

// starLoop starts n clients that each run the star join in a closed loop.
func (b *bed) starLoop(spec join.StarSpec, n int) {
	sockets := b.e.Machine.Sockets
	var issue func(client int)
	issue = func(client int) {
		id := b.begin()
		s := spec
		s.HomeSocket = client % sockets
		s.OnDone = func(lat float64) {
			b.finish(id, lat)
			b.starLat = append(b.starLat, lat)
			issue(client)
		}
		b.star(s)
	}
	for i := 0; i < n; i++ {
		issue(i)
	}
}

// tenant is one open-loop arrival stream. Inside a burst window (the first
// burstLen of every burstPeriod) its rate is multiplied by burstFactor.
type tenant struct {
	name                               string
	rate                               float64 // statements per simulated second
	burstPeriod, burstLen, burstFactor float64

	next float64   // due time of the next arrival
	lat  []float64 // completed-statement latencies from due time
}

// rateAt is the tenant's arrival rate at simulated time at.
func (t *tenant) rateAt(at float64) float64 {
	if t.burstPeriod > 0 && math.Mod(at, t.burstPeriod) < t.burstLen {
		return t.rate * t.burstFactor
	}
	return t.rate
}

// openLoop registers the arrival generator: each tenant's statements are due
// at seeded exponential inter-arrival times, independent of completions.
// Each step submits every arrival that has come due, and each latency counts
// from the due time, so a late generator shows up in the latencies instead
// of hiding in them.
func (b *bed) openLoop(t *colstore.Table, tenants []*tenant) {
	b.tenants = tenants
	cols := t.ColumnNames()
	rng := rand.New(rand.NewSource(b.seed + 202))
	sockets := b.e.Machine.Sockets
	for _, tn := range tenants {
		tn.next = rng.ExpFloat64() / tn.rateAt(0)
	}
	seq := 0
	b.addActor(sim.ActorFunc(func(now float64) {
		for _, tn := range tenants {
			for tn.next <= now {
				due := tn.next
				id := b.begin()
				seq++
				b.submit(&core.Query{
					Table: t, Column: cols[rng.Intn(len(cols))], Selectivity: lowSel,
					Parallel: true, Strategy: core.Bound, HomeSocket: seq % sockets,
					Tenant: tn.name, Class: core.OLAPClass,
					OnDone: func(float64) {
						lat := b.e.Sim.Now() - due
						b.finish(id, lat)
						tn.lat = append(tn.lat, lat)
					},
					OnShed: func() { b.drop(id) },
				})
				tn.next = due + rng.ExpFloat64()/tn.rateAt(due)
			}
		}
	}), "bench.load_tick_share")
}

// micros converts a host duration to microseconds.
func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
