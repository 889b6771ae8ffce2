package core

import (
	"fmt"
	"testing"

	"numacs/internal/admit"
	"numacs/internal/colstore"
	"numacs/internal/plan"
	"numacs/internal/sharedscan"
	"numacs/internal/topology"
)

// pinnedStatement returns an idle engine and the statement the allocation
// pins and BenchmarkSubmit run: a scan-mem statement (selectivity 0.001%,
// Bound) over one of four 100k-row synthetic columns placed round-robin,
// serial, so it runs the two tasks — one find, one output — a scan-mem
// statement runs under its load; with aggregate, its output phase aggregates
// instead of materializing. run submits it and steps the simulator until it
// completes.
func pinnedStatement(aggregate bool) (e *Engine, run func()) {
	e, tbl := pinnedTable()
	done := false
	q := &Query{Table: tbl, Column: "C1", Selectivity: 1e-5, Strategy: Bound,
		Aggregate: aggregate, AggBytesPerRow: 8, AggCyclesPerRow: 8,
		OnDone: func(float64) { done = true }}
	return e, func() {
		done = false
		e.Submit(q)
		for !done {
			e.Sim.Step()
		}
	}
}

// pinnedTable returns an idle engine with the pinned statement's table
// placed: four 100k-row synthetic columns, round-robin.
func pinnedTable() (*Engine, *colstore.Table) {
	e := New(topology.FourSocketIvyBridge(), 1)
	cols := make([]*colstore.Column, 4)
	for i := range cols {
		cols[i] = colstore.NewSynthetic("C"+string(rune('0'+i)), 100_000, 1<<17, false)
	}
	tbl := colstore.NewTable("T", cols)
	e.Placer.PlaceRR(tbl)
	return e, tbl
}

// callerBuiltStatement returns an idle engine and a run of pinnedStatement's
// materializing statement whose Query is built afresh inside every run, as
// a closed-loop client builds one per statement; its callback is made once.
func callerBuiltStatement() (e *Engine, run func()) {
	e, tbl := pinnedTable()
	done := false
	onDone := func(float64) { done = true }
	return e, func() {
		done = false
		e.Submit(&Query{Table: tbl, Column: "C1", Selectivity: 1e-5, Strategy: Bound, OnDone: onDone})
		for !done {
			e.Sim.Step()
		}
	}
}

// TestPlainStatementAllocs pins the heap allocations of one plain statement
// on an idle engine, from Submit through the simulator steps that complete
// it, for a materializing and an aggregating statement: the plan is cached
// with its names resolved, the statement runs on a recycled statement record
// whose pipeline and operators keep their storage, each task is a record its
// operator owns, and the flows, the overhead delay included, run on recycled
// flow records, demand vectors included. A change that adds an allocation to
// the statement path fails here.
func TestPlainStatementAllocs(t *testing.T) {
	for _, aggregate := range []bool{false, true} {
		_, run := pinnedStatement(aggregate)
		run() // plan the shape, make its record and grow the simulator's buffers
		if n := testing.AllocsPerRun(100, run); n != 0 {
			t.Errorf("aggregate=%v: one plain statement allocates %v times, want 0", aggregate, n)
		}
	}
}

// TestCallerBuiltQueryAllocs pins what the caller's own Query costs: the
// run of callerBuiltStatement builds a fresh &Query literal for every
// statement, with or without an admission controller. The engine copies
// what it reads of a statement and keeps no reference to its Query once
// Submit returns, so the literal stays on the caller's stack and the
// statement allocates nothing. A change that keeps the caller's pointer
// fails here.
func TestCallerBuiltQueryAllocs(t *testing.T) {
	for _, admitted := range []bool{false, true} {
		e, run := callerBuiltStatement()
		if admitted {
			e.EnableAdmission(admit.Config{})
		}
		run()
		if n := testing.AllocsPerRun(100, run); n != 0 {
			t.Errorf("admitted=%v: a statement built by its caller allocates %v times, want 0", admitted, n)
		}
	}
}

// TestAdmittedStatementAllocs pins the heap allocations of the pinned plain
// statement on an idle engine with an admission controller, from Submit to
// OnDone: the statement's record owns its admission entry, whose Run and
// OnShed are bound once per record and whose completion hook the
// controller binds once per entry, so admitting it allocates nothing.
func TestAdmittedStatementAllocs(t *testing.T) {
	e, run := pinnedStatement(false)
	e.EnableAdmission(admit.Config{})
	run()
	if n := testing.AllocsPerRun(100, run); n != 0 {
		t.Errorf("one admitted plain statement allocates %v times, want 0", n)
	}
	// The first run, AllocsPerRun's warm-up run and its 100 runs.
	if st := e.Admit.Stats(""); st.Completed != 102 || st.Shed != 0 {
		t.Fatalf("admission completed %d and shed %d statements, want 102 and 0", st.Completed, st.Shed)
	}
}

// writeBed returns an idle engine with admission over rw-burst's table
// shape (16 synthetic columns of 240k rows, placed round-robin) and a run
// that submits one admitted write batch and steps the simulator until its
// last flow drains. The batch follows rw-burst's measured writes (seed 1,
// 84k batches: 12.5 writes per 25 µs step, alternating 12 and 13, 70% of
// them updates, touching 11.1 of the 64 (column, socket) fragments): 13
// writes, 9 of them updates, over 11 fragments.
func writeBed() (e *Engine, run func()) {
	e = New(topology.FourSocketIvyBridge(), 1)
	cols := make([]*colstore.Column, 16)
	for i := range cols {
		cols[i] = colstore.NewSynthetic(fmt.Sprintf("C%02d", i), 240_000, 1<<18, false)
	}
	e.Placer.PlaceRR(colstore.NewTable("T", cols))
	e.EnableAdmission(admit.Config{})
	return e, func() {
		b := e.WriteBatch(cols)
		for k := 0; k < 13; k++ {
			col, socket := 5+k%11, k%11%4
			if k < 9 {
				b.Update(col, socket, k*1000, int64(k))
			} else {
				b.Insert(col, socket, int64(k))
			}
		}
		b.Tenant = "writer"
		e.SubmitWrite(b)
		for e.Admit.InFlight() > 0 {
			e.Sim.Step()
		}
	}
}

// TestWriteBatchAllocs pins the heap allocations of one admitted write
// batch over 11 fragments, from WriteBatch through the simulator steps that
// drain its last flow: the batch, its admission entry, its planned writes
// and row counts, and its flow records with their demands and hooks are
// recycled, so it allocates nothing.
func TestWriteBatchAllocs(t *testing.T) {
	e, run := writeBed()
	run()
	if n := testing.AllocsPerRun(100, run); n != 0 {
		t.Errorf("one admitted write batch allocates %v times, want 0", n)
	}
	if st := e.Admit.Stats("writer"); st.Completed != 102 {
		t.Fatalf("admission completed %d write batches, want 102", st.Completed)
	}
}

// TestCohortPassAllocs pins the heap allocations of one cohort pass of four
// members on an idle engine, from SubmitBatch through the simulator steps
// that complete every member. Each member runs on a recycled statement
// record — its registry member, pipeline, operators, hooks and region copy
// keep their storage — and the group rides the first member's record: its
// group slice and hand-off hook keep theirs too. The pass runs on a recycled
// cohort record of the registry, whose member list, operators, find-barrier
// hooks, selectivities, task and span storage and per-member regions keep
// theirs. A change that adds an allocation to the shared path fails here.
func TestCohortPassAllocs(t *testing.T) {
	e := New(topology.FourSocketIvyBridge(), 1)
	e.EnableSharedScans(sharedscan.Config{})
	col := colstore.NewSynthetic("C", 100_000, 1<<17, false)
	tbl := colstore.NewTable("T", []*colstore.Column{col})
	e.Placer.PlaceRR(tbl)
	done := 0
	qs := make([]*Query, 4)
	for i := range qs {
		qs[i] = &Query{Table: tbl, Column: "C", Selectivity: 1e-3 * float64(i+1), Parallel: true,
			Strategy: Bound, OnDone: func(float64) { done++ }}
	}
	run := func() {
		done = 0
		e.SubmitBatch(qs)
		for done < len(qs) {
			e.Sim.Step()
		}
	}
	run()
	if st := e.Shared.Stats(); st.Passes != 1 || st.Merged != uint64(len(qs)-1) {
		t.Fatalf("the batch ran %d passes with %d merged members, want one pass of %d", st.Passes, st.Merged, len(qs))
	}
	if n := testing.AllocsPerRun(100, run); n != 0 {
		t.Fatalf("one cohort pass of %d members allocates %v times, want 0", len(qs), n)
	}
}

// TestPlanQueryRepeatedShapeAllocs: planning a statement whose shape is
// cached is a lookup, and its operators come from a recycled statement
// record: neither allocates.
func TestPlanQueryRepeatedShapeAllocs(t *testing.T) {
	e := New(topology.FourSocketIvyBridge(), 1)
	tbl := buildPlacedTable(e, 3, 1000, true)
	q := &Query{Table: tbl, Column: "COLA", Selectivity: 0.01, Parallel: true, UseIndex: true,
		ExtraPredicateColumns: []string{"COLB"}, ProjectColumns: []string{"COLC"}}
	plan := func() {
		r := e.record(q)
		r.refresh()
		r.free()
	}
	plan()
	if n := testing.AllocsPerRun(100, plan); n != 0 {
		t.Fatalf("planning a cached shape allocates %v times, want 0", n)
	}
}

// planStatementBed returns a warm idle engine and the runs of the two
// Query.Plan statements TestPlanStatementAllocs pins: a join-free plan over
// the pinned statement's table, and the single-dimension star of starPlan.
// Each run builds the statement's logical plan, submits it and steps the
// simulator until it completes.
func planStatementBed() (joinFree, star func()) {
	e := New(topology.FourSocketIvyBridge(), 1)
	cols := make([]*colstore.Column, 4)
	for i := range cols {
		cols[i] = colstore.NewSynthetic("C"+string(rune('0'+i)), 100_000, 1<<17, false)
	}
	tbl := colstore.NewTable("T", cols)
	e.Placer.PlaceRR(tbl)
	dim, fact := buildStarTables(e)
	runner := func(build func() *plan.Logical) func() {
		done := false
		q := &Query{Strategy: Bound, OnDone: func(float64) { done = true }}
		return func() {
			done = false
			q.Plan = build()
			e.Submit(q)
			for !done {
				e.Sim.Step()
			}
		}
	}
	joinFree = runner(func() *plan.Logical {
		return plan.BuildQuery(plan.Statement{Table: tbl, Column: "C1", Selectivity: 1e-5, Parallel: true})
	})
	star = runner(func() *plan.Logical { return starPlan(dim, fact, "D_ID") })
	return joinFree, star
}

// TestPlanStatementAllocs pins the heap allocations of one Query.Plan
// statement on a warm idle engine, from building its logical plan through
// the simulator steps that complete it, for planStatementBed's join-free
// plan and star. Both are planned once per shape and statistics and run on
// a recycled statement record that keeps its operators, so what remains is
// the logical build: BuildQuery's tree, one block (1); and BuildStar's tree
// and its dimension block (2) — starPlan's dimension list stays on its
// stack, since the tree copies what it needs out of it.
// On an idle engine the concurrency hint fans the parallel find phase out
// past the 16 spans ScanOp.Open's stack buffer holds (the join-free scan,
// the star's dimension scan); the operator keeps that span list, so it
// allocates nothing once warm. A change that adds an allocation to either
// path fails here. The pins hold without the race detector only.
func TestPlanStatementAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes the planner's allocation counts")
	}
	joinFree, star := planStatementBed()
	for _, tc := range []struct {
		name string
		run  func()
		want float64
	}{
		{"join-free", joinFree, 1},
		{"star", star, 2},
	} {
		// Plan the shape, make its record and grow the simulator's buffers.
		for i := 0; i < 10; i++ {
			tc.run()
		}
		if n := testing.AllocsPerRun(100, tc.run); n != tc.want {
			t.Errorf("%s: one Query.Plan statement allocates %v times, want %v", tc.name, n, tc.want)
		}
	}
}

// BenchmarkSubmit measures the statement path end to end on the host: one
// "row" is the pinned statement of TestPlainStatementAllocs, its Query
// built by the caller inside the timed loop (callerBuiltStatement),
// submitted and stepped to completion on an idle engine. Its allocs/op
// reads 0, so an engine that lets the caller's Query escape again shows
// here.
func BenchmarkSubmit(b *testing.B) {
	_, run := callerBuiltStatement()
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/row")
}

// BenchmarkStarSubmit measures the star statement path end to end on the
// host: one "row" is the star of TestPlanStatementAllocs, built, submitted
// and stepped to completion on a warm idle engine, with its allocations per
// statement alongside.
func BenchmarkStarSubmit(b *testing.B) {
	_, run := planStatementBed()
	for i := 0; i < 10; i++ {
		run()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/row")
}

// BenchmarkCohortPass measures the shared statement path end to end on the
// host: one "row" is one cohort pass of 14 members on an idle engine, from
// submission through the simulator steps that complete every member, with
// its allocations per pass alongside. Ten members launch the pass together
// and four attach mid-flight, at 27% of its bytes, and finish with a wrap
// pass. The bed follows shared-star's measured cohort shape (seed 1, traced:
// 13.5 members per pass, 27% of members attached mid-flight, 1.8% of passes
// solo) on its hot column (480k rows, domain 2^14, interleaved over the four
// sockets), and differs from it in four ways: the launch members enter as
// one SubmitBatch group instead of filling a forming cohort arrival by
// arrival; no pass is solo; no star join runs beside the pass; and the step
// is 5 µs instead of 25 µs, since an idle pass streams in about 20 µs and a
// coarser step leaves no mid-flight instant to attach at.
func BenchmarkCohortPass(b *testing.B) {
	e := NewWithStep(topology.FourSocketIvyBridge(), 1, 5e-6)
	col := colstore.NewSynthetic("H_VAL", 480_000, 1<<14, false)
	tbl := colstore.NewTable("HOT", []*colstore.Column{col})
	e.Placer.PlaceIVP(col, []int{0, 1, 2, 3})
	e.EnableSharedScans(sharedscan.Config{})
	done := 0
	qs := make([]*Query, 14)
	for i := range qs {
		qs[i] = &Query{Table: tbl, Column: "H_VAL", Selectivity: 1e-5, Parallel: true,
			Strategy: Bound, HomeSocket: i % 4, OnDone: func(float64) { done++ }}
	}
	run := func() {
		done = 0
		e.SubmitBatch(qs[:10])
		e.Sim.Step()
		for _, q := range qs[10:] {
			e.Submit(q)
		}
		for done < len(qs) {
			e.Sim.Step()
		}
	}
	run()
	if st := e.Shared.Stats(); st.Passes != 1 || st.Merged != 9 || st.Attached != 4 || st.Wraps != 1 {
		b.Fatalf("the bed ran %+v, want one pass of 10 launch members and 4 attachers with a wrap", st)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/row")
}

// BenchmarkAdmittedSubmit measures the admitted statement path end to end on
// the host: one "row" is the pinned statement of TestPlainStatementAllocs
// submitted through an admission controller and stepped to completion on an
// idle engine, with its allocations per statement alongside. The controller
// admits it at once, with no queue: in rw-burst (seed 1, 550k statements) no
// statement waited in an admission queue, and 29.6 statements were in
// flight on average at submission against a limit of 120.
func BenchmarkAdmittedSubmit(b *testing.B) {
	e, run := pinnedStatement(false)
	e.EnableAdmission(admit.Config{})
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/row")
}

// BenchmarkWriteBatch measures the write path end to end on the host: one
// "row" is the admitted write batch of TestWriteBatchAllocs (writeBed's
// rw-burst-shaped batch of 13 writes over 11 fragments), from WriteBatch
// until its last flow drains, with its allocations per batch alongside.
func BenchmarkWriteBatch(b *testing.B) {
	_, run := writeBed()
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/row")
}
