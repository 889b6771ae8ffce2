package core

import (
	"testing"

	"numacs/internal/colstore"
	"numacs/internal/topology"
)

// pinnedStatement returns an idle engine and the statement the allocation
// pin and BenchmarkSubmit run: a scan-mem statement (selectivity 0.001%,
// Bound) over one of four 100k-row synthetic columns placed round-robin,
// serial, so it runs the two tasks — one find, one output — a scan-mem
// statement runs under its load. run submits it and steps the simulator
// until it completes.
func pinnedStatement() (e *Engine, run func()) {
	e = New(topology.FourSocketIvyBridge(), 1)
	cols := make([]*colstore.Column, 4)
	for i := range cols {
		cols[i] = colstore.NewSynthetic("C"+string(rune('0'+i)), 100_000, 1<<17, false)
	}
	tbl := colstore.NewTable("T", cols)
	e.Placer.PlaceRR(tbl)
	done := false
	q := &Query{Table: tbl, Column: "C1", Selectivity: 1e-5, Strategy: Bound,
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
// it: the plan is cached, each task costs one allocation (its Run), and the
// flows run on recycled records, demand vectors included. A change that adds an
// allocation to the statement path fails here; one that removes some
// lowers the pin.
func TestPlainStatementAllocs(t *testing.T) {
	_, run := pinnedStatement()
	run() // plan the shape and grow the simulator's buffers
	const want = 17
	if n := testing.AllocsPerRun(100, run); n != want {
		t.Fatalf("one plain statement allocates %v times, want %v", n, want)
	}
}

// TestPlanQueryRepeatedShapeAllocs: planning a statement whose shape is
// cached is a lookup plus one lowering — the combined Lowered/ScanOp object
// and the output operator.
func TestPlanQueryRepeatedShapeAllocs(t *testing.T) {
	e := New(topology.FourSocketIvyBridge(), 1)
	tbl := buildPlacedTable(e, 3, 1000, true)
	q := &Query{Table: tbl, Column: "COLA", Selectivity: 0.01, Parallel: true, UseIndex: true,
		ExtraPredicateColumns: []string{"COLB"}, ProjectColumns: []string{"COLC"}}
	e.lower(e.planQuery(q))
	if n := testing.AllocsPerRun(100, func() { e.lower(e.planQuery(q)) }); n > 2 {
		t.Fatalf("planning a cached shape allocates %v times, want at most 2", n)
	}
}

// BenchmarkSubmit measures the statement path end to end on the host: one
// "row" is the pinned statement of TestPlainStatementAllocs, submitted and
// stepped to completion on an idle engine.
func BenchmarkSubmit(b *testing.B) {
	_, run := pinnedStatement()
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/row")
}
