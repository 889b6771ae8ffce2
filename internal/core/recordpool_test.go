package core

import (
	"fmt"
	"testing"

	"numacs/internal/colstore"
	"numacs/internal/plan"
	"numacs/internal/topology"
)

// TestStatementRecordsBoundedByInFlight: closed-loop clients, each moving
// over more columns than there are clients and alternating a materializing,
// an aggregating and, now and then, a star statement, run on records of the
// engine's one free list. Every shape is a plan-cache entry of its own, and
// the records made never exceed the peak number of statements submitted
// and not yet resolved.
func TestStatementRecordsBoundedByInFlight(t *testing.T) {
	e := New(topology.FourSocketIvyBridge(), 1)
	const clients, columns, rounds = 8, 12, 24
	cols := make([]*colstore.Column, columns)
	for i := range cols {
		cols[i] = colstore.NewSynthetic(fmt.Sprintf("C%02d", i), 50_000, 1<<14, false)
	}
	tbl := colstore.NewTable("T", cols)
	e.Placer.PlaceRR(tbl)
	dim, fact := buildStarTables(e)
	star := starPlan(dim, fact, "D_ID")

	inFlight, peak, done := 0, 0, 0
	var client func(i, k int)
	client = func(i, k int) {
		if k == rounds {
			return
		}
		q := &Query{Table: tbl, Column: cols[(i+k)%columns].Name, Selectivity: 1e-3, Parallel: true,
			Strategy: Bound, HomeSocket: i % 4, Aggregate: k%2 == 1, AggBytesPerRow: 8, AggCyclesPerRow: 8}
		if k%5 == 4 {
			q = &Query{Plan: star, Strategy: Bound, HomeSocket: i % 4}
		}
		q.OnDone = func(float64) {
			inFlight--
			done++
			client(i, k+1)
		}
		inFlight++
		peak = max(peak, inFlight)
		e.Submit(q)
	}
	for i := 0; i < clients; i++ {
		client(i, 0)
	}
	for steps := 0; done < clients*rounds; steps++ {
		if steps > 1_000_000 {
			t.Fatalf("%d of %d statements done", done, clients*rounds)
		}
		e.Sim.Step()
	}
	if e.nPlans <= clients {
		t.Fatalf("the run planned %d shapes, want more than its %d clients", e.nPlans, clients)
	}
	if e.records > peak || inFlight != 0 {
		t.Fatalf("%d records made for %d shapes with at most %d statements in flight (%d left), want at most %d",
			e.records, e.nPlans, peak, inFlight, peak)
	}
	idle := 0
	for r := e.free; r != nil; r = r.next {
		idle++
	}
	if idle != e.records {
		t.Fatalf("%d of the %d records made are idle once every statement resolved", idle, e.records)
	}
}

// TestRecordRefillAllocs pins what moving a warm record between plans
// costs. A statement on a shape new to the cache allocates its entry and
// plan, as planning the shape alone does, and never a record. One warm
// record that runs two plain shapes and a star in turn is refilled before
// each statement — its operators keep their storage across the fills — so
// the sequence allocates nothing.
func TestRecordRefillAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes the planner's allocation counts")
	}
	// newShape returns an engine warmed by one statement, its run, and a
	// source of statements whose shape no earlier one had.
	newShape := func() (*Engine, func(*Query), func() *Query) {
		e, tbl := pinnedTable()
		run := runner(e)
		i := 0
		next := func() *Query {
			i++
			return &Query{Table: tbl, Column: "C1", Selectivity: 1e-5 * float64(i), Strategy: Bound}
		}
		run(next())
		return e, run, next
	}
	e, _, next := newShape()
	planOnly := testing.AllocsPerRun(50, func() { e.cachedPlan(next()).physical(e) })
	e, run, next := newShape()
	statement := testing.AllocsPerRun(50, func() { run(next()) })
	if statement != planOnly || e.records != 1 {
		t.Errorf("a statement on a new shape allocates %v times and made %d records, want %v (its entry and plan) and 1",
			statement, e.records, planOnly)
	}

	e, tbl := pinnedTable()
	run = runner(e)
	dim, fact := buildStarTables(e)
	mat := &Query{Table: tbl, Column: "C1", Selectivity: 1e-5, Strategy: Bound}
	agg := &Query{Table: tbl, Column: "C2", Selectivity: 1e-3, Parallel: true, Strategy: Bound,
		Aggregate: true, AggBytesPerRow: 8, AggCyclesPerRow: 8}
	star := &Query{Plan: starPlan(dim, fact, "D_ID"), Strategy: Bound}
	seq := []*Query{mat, agg, mat, star}
	var phys [4]*plan.Physical // the plan each statement of seq ran
	turn := func() {
		for i, q := range seq {
			run(q)
			phys[i] = e.free.phys
		}
	}
	// Make the record, grow the star's join storage, and grow the
	// simulator's and the allocator's buffers.
	for i := 0; i < 30; i++ {
		turn()
	}
	if n := testing.AllocsPerRun(100, turn); n != 0 {
		t.Errorf("a warm record moving between two plain shapes and a star allocates %v times, want 0", n)
	}
	if e.records != 1 || phys[0] == phys[1] || phys[1] == phys[2] || phys[2] == phys[3] {
		t.Fatalf("the statements ran on %d records, want one record refilled before each statement", e.records)
	}
}

// runner returns a run that submits a statement on e and steps the
// simulator until it completes; the callback it sets is made once.
func runner(e *Engine) func(*Query) {
	done := false
	onDone := func(float64) { done = true }
	return func(q *Query) {
		done, q.OnDone = false, onDone
		e.Submit(q)
		for !done {
			e.Sim.Step()
		}
	}
}

// TestPlanCacheResetKeepsRecords: starting the plan cache over keeps the
// engine's records. The statement after the reset runs on the record the
// statement before it ran on, refilled from its new entry's fresh plan.
func TestPlanCacheResetKeepsRecords(t *testing.T) {
	e := New(topology.FourSocketIvyBridge(), 1)
	tbl := buildPlacedTable(e, 3, 1000, true)
	build := func() *Query {
		return &Query{Table: tbl, Column: "COLA", Selectivity: 0.01, Parallel: true, UseIndex: true,
			ExtraPredicateColumns: []string{"COLB"}, ProjectColumns: []string{"COLC"}}
	}
	run := runner(e)
	run(build())
	r, before := e.free, e.free.phys
	for i := 0; i == 0 || e.nPlans != 1; i++ {
		e.cachedPlan(&Query{Table: tbl, Column: "COLB", Selectivity: float64(i+1) / 10_001, Parallel: true})
	}
	run(build())
	if e.records != 1 || e.free != r {
		t.Fatalf("after the reset the engine made %d records, want the one it held before", e.records)
	}
	if r.phys == before {
		t.Fatal("the record kept the plan of an entry the reset dropped")
	}
	assertFreshPlan(t, e, build, "after the reset")
}
