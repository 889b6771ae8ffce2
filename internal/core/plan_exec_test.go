package core

import (
	"math"
	"math/rand"
	"testing"

	"numacs/internal/exec"
	"numacs/internal/metrics"
	"numacs/internal/plan"
	"numacs/internal/sharedscan"
	"numacs/internal/topology"
)

// randomStatements draws a fixed-seed mix of plain statements spanning the
// planner's plain-plan space: selectivity sweep, serial and parallel,
// index-permitted, multi-predicate, materializing and aggregating.
func randomStatements(rng *rand.Rand, n int) []*Query {
	out := make([]*Query, n)
	for i := range out {
		q := &Query{
			Column:      "COLA",
			Selectivity: math.Pow(10, -1-3*rng.Float64()),
			Parallel:    rng.Intn(4) != 0,
			Strategy:    Bound,
			HomeSocket:  rng.Intn(4),
		}
		if rng.Intn(4) == 0 {
			q.UseIndex = true
		}
		if rng.Intn(4) == 0 {
			q.ExtraPredicateColumns = []string{"COLB"}
		}
		if rng.Intn(2) == 0 {
			q.Aggregate = true
			q.AggBytesPerRow = float64(4 + rng.Intn(12))
			q.AggCyclesPerRow = float64(2 + rng.Intn(30))
		} else {
			q.ProjectColumns = []string{"COLA"}
		}
		out[i] = q
	}
	return out
}

// TestPlanRewritesPreserveExecution is the execution half of the rewrite-
// preservation property: twin fixed-seed engines drive the same random
// statement mix, one through Submit (full pass pipeline), the other through
// pass-less lowering started on a hand-built pipeline behind the same
// per-query overhead (the unoptimized control). The two runs' fingerprints —
// every counter and the full latency histogram — must match: the optimizer
// may only change representation on plain statements, never execution.
func TestPlanRewritesPreserveExecution(t *testing.T) {
	const n = 24
	run := func(optimized bool) *Engine {
		e := New(topology.FourSocketIvyBridge(), 1)
		tbl := buildPlacedTable(e, 2, 20000, true)
		rng := rand.New(rand.NewSource(42))
		qs := randomStatements(rng, n)
		inflight := 0
		next := 0
		var issue func()
		issue = func() {
			for inflight < 6 && next < len(qs) {
				q := qs[next]
				next++
				inflight++
				q.Table = tbl
				q.OnDone = func(float64) { inflight--; issue() }
				if optimized {
					e.Submit(q)
					continue
				}
				low := plan.OptimizeWith(plan.BuildQuery(plan.Statement{
					Table: q.Table, Column: q.Column, Selectivity: q.Selectivity,
					ExtraPredicateColumns: q.ExtraPredicateColumns,
					ProjectColumns:        q.ProjectColumns,
					UseIndex:              q.UseIndex, Parallel: q.Parallel,
					Aggregate: q.Aggregate, AggBytesPerRow: q.AggBytesPerRow,
					AggCyclesPerRow: q.AggCyclesPerRow,
				}), nil, &e.Costs, nil).Lower(plan.Deps{Alloc: e.Placer.Alloc, DisableCoalesce: e.DisableCoalesce})
				e.activeStatements++
				p := &exec.Pipeline{
					Env: e.env, Strategy: q.Strategy, HomeSocket: q.HomeSocket,
					IssuedAt: e.Sim.Now(), Ops: low.Ops, OnDone: e.completion(q, nil),
				}
				e.afterOverhead(p.Start)
			}
		}
		issue()
		e.Sim.Run(0.4)
		return e
	}
	o := run(true).Counters
	if o.QueriesDone != uint64(n) {
		t.Fatalf("optimized run completed %d of %d statements", o.QueriesDone, n)
	}
	u := run(false).Counters
	if fo, fu := metrics.Fingerprint(o), metrics.Fingerprint(u); fo != fu {
		t.Fatalf("optimized lowering drifted from the unoptimized control:\n--- optimized ---\n%s--- unoptimized ---\n%s", fo, fu)
	}
}

// TestSubmitBatchGroupsCommonSubplans pins the plan-driven cohort path: a
// batch of same-column shareable scans lands in the registry as one
// plan-grouped cohort, non-shareable statements in the same batch — a
// multi-predicate scan and a planned star join — take the private pipeline,
// and every statement completes.
func TestSubmitBatchGroupsCommonSubplans(t *testing.T) {
	e := New(topology.FourSocketIvyBridge(), 1)
	reg := e.EnableSharedScans(sharedscan.Config{})
	tbl := buildPlacedTable(e, 2, 20000, false)
	dim, fact := buildStarTables(e)

	done := 0
	onDone := func(float64) { done++ }
	var qs []*Query
	for i := 0; i < 5; i++ {
		qs = append(qs, &Query{
			Table: tbl, Column: "COLA", Selectivity: 1e-3,
			Parallel: true, Strategy: Bound, OnDone: onDone,
		})
	}
	// A non-shareable rider: multi-predicate statements keep the private path.
	qs = append(qs, &Query{
		Table: tbl, Column: "COLA", Selectivity: 1e-3,
		ExtraPredicateColumns: []string{"COLB"},
		Parallel:              true, Strategy: Bound, OnDone: onDone,
	})
	qs = append(qs, &Query{Plan: starPlan(dim, fact, "D_ID"), Strategy: Bound, OnDone: onDone})
	e.SubmitBatch(qs)
	e.Sim.Run(0.3)

	if done != len(qs) {
		t.Fatalf("completed %d of %d batch statements", done, len(qs))
	}
	st := reg.Stats()
	if st.PlanGrouped != 5 {
		t.Errorf("plan-grouped statements = %d, want 5 (%+v)", st.PlanGrouped, st)
	}
	if st.Statements != 5 {
		t.Errorf("registry statements = %d, want 5 (the riders must stay private)", st.Statements)
	}
	if st.Passes != 1 || st.Merged != 4 {
		t.Errorf("grouped batch did not share one pass: %+v", st)
	}
}

// TestSubmitBatchFallsBackUnderAdmission: with no registry every statement
// starts privately, and the batch still completes everything.
func TestSubmitBatchFallsBackUnderAdmission(t *testing.T) {
	e := New(topology.FourSocketIvyBridge(), 1)
	tbl := buildPlacedTable(e, 1, 20000, false)
	done := 0
	var qs []*Query
	for i := 0; i < 4; i++ {
		qs = append(qs, &Query{
			Table: tbl, Column: "COLA", Selectivity: 1e-3,
			Parallel: true, Strategy: Bound, OnDone: func(float64) { done++ },
		})
	}
	e.SubmitBatch(qs)
	e.Sim.Run(0.3)
	if done != len(qs) {
		t.Fatalf("completed %d of %d statements without a registry", done, len(qs))
	}
}
