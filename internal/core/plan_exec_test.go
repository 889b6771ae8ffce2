package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"numacs/internal/admit"
	"numacs/internal/exec"
	"numacs/internal/metrics"
	"numacs/internal/plan"
	"numacs/internal/sharedscan"
	"numacs/internal/sim"
	"numacs/internal/topology"
	"numacs/internal/trace"
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
// preservation property: fixed-seed engines drive the same random statement
// mix through Submit (full pass pipeline), through Submit as join-free
// Query.Plan statements (each on a record of its own plan-cache entry), and
// through pass-less lowering started on a
// hand-built pipeline behind the same per-query overhead (the unoptimized
// control). The runs' fingerprints — every counter and the full latency
// histogram — must match: the optimizer may only change representation on
// plain statements, never execution, and a plain statement runs the same
// whichever way it is written.
func TestPlanRewritesPreserveExecution(t *testing.T) {
	const n = 24
	run := func(mode string) *Engine {
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
				st := plan.Statement{
					Table: q.Table, Column: q.Column, Selectivity: q.Selectivity,
					ExtraPredicateColumns: q.ExtraPredicateColumns,
					ProjectColumns:        q.ProjectColumns,
					UseIndex:              q.UseIndex, Parallel: q.Parallel,
					Aggregate: q.Aggregate, AggBytesPerRow: q.AggBytesPerRow,
					AggCyclesPerRow: q.AggCyclesPerRow,
				}
				switch mode {
				case "plain":
					e.Submit(q)
					continue
				case "plan":
					e.Submit(&Query{Plan: plan.BuildQuery(st), Strategy: q.Strategy, HomeSocket: q.HomeSocket, OnDone: q.OnDone})
					continue
				}
				low := plan.OptimizeWith(plan.BuildQuery(st), nil, &e.Costs, nil).Lower(plan.Deps{Alloc: e.Placer.Alloc, DisableCoalesce: e.DisableCoalesce})
				e.activeStatements++
				p := &exec.Pipeline{
					Env: e.env, Strategy: q.Strategy, HomeSocket: q.HomeSocket,
					IssuedAt: e.Sim.Now(), Ops: low, OnDone: func(lat float64) { e.activeStatements--; q.OnDone(lat) },
				}
				e.startOverhead(new(sim.Flow), p.Start)
			}
		}
		issue()
		e.Sim.Run(0.4)
		return e
	}
	o := run("plain").Counters
	if o.QueriesDone != uint64(n) {
		t.Fatalf("optimized run completed %d of %d statements", o.QueriesDone, n)
	}
	fo := metrics.Fingerprint(o)
	if fu := metrics.Fingerprint(run("control").Counters); fo != fu {
		t.Fatalf("optimized lowering drifted from the unoptimized control:\n--- optimized ---\n%s--- unoptimized ---\n%s", fo, fu)
	}
	if fp := metrics.Fingerprint(run("plan").Counters); fo != fp {
		t.Fatalf("Query.Plan statements drifted from the plain ones:\n--- plain ---\n%s--- Query.Plan ---\n%s", fo, fp)
	}
}

// TestSubmitBatchGroupsCommonSubplans pins the plan-driven cohort path: a
// batch of same-column shareable scans, one of them written as a join-free
// Query.Plan, lands in the registry as one plan-grouped cohort,
// non-shareable statements in the same batch — a multi-predicate scan and a
// planned star join — take the private pipeline, and every statement
// completes.
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
	qs = append(qs, &Query{
		Plan:     plan.BuildQuery(plan.Statement{Table: tbl, Column: "COLA", Selectivity: 2e-3, Parallel: true}),
		Strategy: Bound, OnDone: onDone,
	})
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
	if st.PlanGrouped != 6 {
		t.Errorf("plan-grouped statements = %d, want 6 (%+v)", st.PlanGrouped, st)
	}
	if st.Statements != 6 {
		t.Errorf("registry statements = %d, want 6 (the riders must stay private)", st.Statements)
	}
	if st.Passes != 1 || st.Merged != 5 {
		t.Errorf("grouped batch did not share one pass: %+v", st)
	}
}

// TestSubmitBatchGroupsByShareKey: a batch that interleaves shareable scans
// of two columns forms one plan group per cohort key, each holding exactly
// the statements with its key, and hands the groups to the registry in the
// order their keys first appear in the batch.
func TestSubmitBatchGroupsByShareKey(t *testing.T) {
	e := New(topology.FourSocketIvyBridge(), 1)
	tr := e.EnableTracing(trace.Config{})
	reg := e.EnableSharedScans(sharedscan.Config{})
	tbl := buildPlacedTable(e, 2, 20000, false)
	done := 0
	var qs []*Query
	for _, col := range []string{"COLB", "COLA", "COLB", "COLA", "COLB"} {
		qs = append(qs, &Query{Table: tbl, Column: col, Selectivity: 1e-3,
			Parallel: true, Strategy: Bound, OnDone: func(float64) { done++ }})
	}
	e.SubmitBatch(qs)
	e.Sim.Run(0.3)
	if done != len(qs) {
		t.Fatalf("completed %d of %d batch statements", done, len(qs))
	}
	if st := reg.Stats(); st.PlanGrouped != 5 || st.Passes != 2 || st.Merged != 3 {
		t.Errorf("want one pass per column, of 3 and 2 plan-grouped members: %+v", st)
	}
	var groups []string
	for _, d := range tr.Data().Decisions {
		if d.Kind == "plan-group" {
			groups = append(groups, d.Item+": "+d.Cause)
		}
	}
	want := []string{
		"TBL.COLB: planner grouped 3 statements on a common subplan",
		"TBL.COLA: planner grouped 2 statements on a common subplan",
	}
	if !slices.Equal(groups, want) {
		t.Errorf("plan groups %q, want %q", groups, want)
	}
}

// TestSubmitBatchFallsBackUnderAdmission: with no registry every statement
// starts privately, and with an admission controller every statement of the
// batch queues on its own and none is plan-grouped; either way the batch
// completes everything.
func TestSubmitBatchFallsBackUnderAdmission(t *testing.T) {
	for _, admission := range []bool{false, true} {
		e := New(topology.FourSocketIvyBridge(), 1)
		var ctl *admit.Controller
		var reg *sharedscan.Registry
		if admission {
			reg = e.EnableSharedScans(sharedscan.Config{})
			ctl = e.EnableAdmission(admit.Config{})
		}
		tbl := buildPlacedTable(e, 1, 20000, false)
		done := 0
		var qs []*Query
		for i := 0; i < 4; i++ {
			qs = append(qs, &Query{
				Table: tbl, Column: "COLA", Selectivity: 1e-3, Tenant: "t",
				Parallel: true, Strategy: Bound, OnDone: func(float64) { done++ },
			})
		}
		e.SubmitBatch(qs)
		e.Sim.Run(0.3)
		if done != len(qs) {
			t.Fatalf("admission=%v: completed %d of %d statements", admission, done, len(qs))
		}
		if !admission {
			continue
		}
		if st := ctl.Stats("t"); st.Submitted != uint64(len(qs)) {
			t.Errorf("admission saw %d of %d statements", st.Submitted, len(qs))
		}
		if st := reg.Stats(); st.PlanGrouped != 0 || st.Statements != uint64(len(qs)) {
			t.Errorf("admitted batch statements were plan-grouped: %+v", st)
		}
	}
}
