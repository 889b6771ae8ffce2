package core

import (
	"testing"

	"numacs/internal/colstore"
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
	e = New(topology.FourSocketIvyBridge(), 1)
	cols := make([]*colstore.Column, 4)
	for i := range cols {
		cols[i] = colstore.NewSynthetic("C"+string(rune('0'+i)), 100_000, 1<<17, false)
	}
	tbl := colstore.NewTable("T", cols)
	e.Placer.PlaceRR(tbl)
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

// TestPlainStatementAllocs pins the heap allocations of one plain statement
// on an idle engine, from Submit through the simulator steps that complete
// it, for a materializing and an aggregating statement: the plan is cached
// with its names resolved, the statement runs on a recycled statement record
// whose pipeline, operators and overhead flow keep their storage, each task
// is a record its operator owns, and the flows run on recycled flow records,
// demand vectors included. A change that adds an allocation to the statement
// path fails here.
func TestPlainStatementAllocs(t *testing.T) {
	for _, aggregate := range []bool{false, true} {
		_, run := pinnedStatement(aggregate)
		run() // plan the shape, make its record and grow the simulator's buffers
		if n := testing.AllocsPerRun(100, run); n != 0 {
			t.Errorf("aggregate=%v: one plain statement allocates %v times, want 0", aggregate, n)
		}
	}
}

// TestCohortPassAllocs pins the heap allocations of one cohort pass of four
// members on an idle engine, from SubmitBatch through the simulator steps
// that complete every member. Cohort members are not recycled yet: each
// carries its own registry member with its pipeline inside it, completion
// hooks, output operator and operator slice, and the pass its own operator.
// A change that adds an allocation to the shared path fails here; one that
// removes some lowers the pin.
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
	const want = 89
	if n := testing.AllocsPerRun(100, run); n != want {
		t.Fatalf("one cohort pass of %d members allocates %v times, want %v", len(qs), n, want)
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
		pp := e.plainPlan(q)
		r := pp.take(e)
		r.next, pp.free = pp.free, r
	}
	plan()
	if n := testing.AllocsPerRun(100, plan); n != 0 {
		t.Fatalf("planning a cached shape allocates %v times, want 0", n)
	}
}

// BenchmarkSubmit measures the statement path end to end on the host: one
// "row" is the pinned statement of TestPlainStatementAllocs, submitted and
// stepped to completion on an idle engine.
func BenchmarkSubmit(b *testing.B) {
	_, run := pinnedStatement(false)
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/row")
}
