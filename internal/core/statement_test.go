package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"numacs/internal/admit"
	"numacs/internal/colstore"
	"numacs/internal/metrics"
	"numacs/internal/plan"
	"numacs/internal/sharedscan"
	"numacs/internal/topology"
	"numacs/internal/trace"
)

// buildStarTables builds and IVP-places a small star schema: a dimension
// (D_DATE predicate, D_ID key) and a fact table (F_FK foreign key).
func buildStarTables(e *Engine) (dim, fact *colstore.Table) {
	dim = colstore.NewTable("DIM", []*colstore.Column{
		colstore.NewSynthetic("D_DATE", 5_000, 1<<12, false),
		colstore.NewSynthetic("D_ID", 5_000, 1<<13, false),
	})
	fact = colstore.NewTable("FACT", []*colstore.Column{
		colstore.NewSynthetic("F_FK", 20_000, 1<<13, false),
	})
	for _, t := range []*colstore.Table{dim, fact} {
		for _, c := range t.Parts[0].Columns {
			e.Placer.PlaceIVP(c, []int{0, 1, 2, 3})
		}
	}
	return dim, fact
}

// starPlan builds the single-dimension star statement joining on key.
func starPlan(dim, fact *colstore.Table, key string) *plan.Logical {
	return plan.BuildStar(plan.StarStatement{Fact: fact, AggBytesPerRow: 12, AggCyclesPerRow: 24},
		plan.StarDim{Dim: dim, Predicate: "D_DATE", Key: key, FactFK: "F_FK", Selectivity: 0.05, HitsPerProbeRow: 1})
}

// TestSubmitRejectsBadStatements: a statement naming an unknown column or a
// column that is not placed, carrying a selectivity outside [0, 1] (NaN and
// infinities included) on a plain statement or a plan predicate, joining a
// physically partitioned table, ending a join in a projection or a
// materialization the planner cannot run, or scanning without a predicate
// where a plan finds its rows (a join-free plan, a join's build side), fails at
// Submit — before it opens a trace span or enters an admission queue —
// instead of mid-simulation. As the last statement of a SubmitBatch, behind
// a good one, it fails the whole batch the same way, with an admission
// controller or without: no statement of the batch opens a span, reaches
// admission, becomes active or starts a flow.
func TestSubmitRejectsBadStatements(t *testing.T) {
	type badStatement struct {
		name string
		want string
		q    func(e *Engine) *Query
	}
	cases := []badStatement{
		{"unknown predicate column", `no column "NOPE"`, func(e *Engine) *Query {
			return &Query{Table: buildPlacedTable(e, 2, 1000, false), Column: "NOPE", Selectivity: 0.1}
		}},
		{"unplaced table", "not placed", func(e *Engine) *Query {
			tbl := colstore.NewTable("RAW", []*colstore.Column{
				colstore.Build("COLA", testColumnVals(1000, 1<<10, 1), false),
			})
			return &Query{Table: tbl, Column: "COLA", Selectivity: 0.1}
		}},
		{"unknown projection", `no column "NOPE"`, func(e *Engine) *Query {
			return &Query{Table: buildPlacedTable(e, 2, 1000, false), Column: "COLA",
				Selectivity: 0.1, ProjectColumns: []string{"COLB", "NOPE"}}
		}},
		{"star with a bad key", `no column "NOPE"`, func(e *Engine) *Query {
			dim, fact := buildStarTables(e)
			return &Query{Plan: starPlan(dim, fact, "NOPE")}
		}},
		{"star over a partitioned fact table", "join table FACT is physically partitioned", func(e *Engine) *Query {
			dim, fact := buildStarTables(e)
			return &Query{Plan: starPlan(dim, e.Placer.PlacePP(fact, 2), "D_ID")}
		}},
		{"star aggregate with a projection", "a join projects no columns", func(e *Engine) *Query {
			dim, fact := buildStarTables(e)
			l := starPlan(dim, fact, "D_ID")
			l.Root.(*plan.AggregateNode).ProjectColumns = []string{"F_FK"}
			return &Query{Plan: l}
		}},
		{"star materialization", "a join's output must be an aggregate", func(e *Engine) *Query {
			dim, fact := buildStarTables(e)
			l := starPlan(dim, fact, "D_ID")
			l.Root = &plan.MaterializeNode{Input: l.Root.(*plan.AggregateNode).Input, Parallel: true}
			return &Query{Plan: l}
		}},
		{"plan materialization without a predicate", "scan of table TBL carries no predicate", func(e *Engine) *Query {
			scan := &plan.ScanNode{Table: buildPlacedTable(e, 2, 1000, false)}
			return &Query{Plan: &plan.Logical{Root: &plan.MaterializeNode{Input: scan}}}
		}},
		{"plan aggregate without a predicate", "scan of table TBL carries no predicate", func(e *Engine) *Query {
			scan := &plan.FilterNode{Input: &plan.ScanNode{Table: buildPlacedTable(e, 2, 1000, false)}}
			return &Query{Plan: &plan.Logical{Root: &plan.AggregateNode{Input: scan, BytesPerRow: 4}}}
		}},
		{"star build side without a predicate", "scan of table DIM carries no predicate", func(e *Engine) *Query {
			dim, fact := buildStarTables(e)
			l := starPlan(dim, fact, "D_ID")
			j := l.Root.(*plan.AggregateNode).Input.(*plan.JoinNode)
			j.Build = j.Build.(*plan.FilterNode).Input
			return &Query{Plan: l}
		}},
	}
	for _, sel := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.5, 1.5} {
		cases = append(cases, badStatement{fmt.Sprintf("plain selectivity %v", sel), "outside [0, 1]", func(e *Engine) *Query {
			return &Query{Table: buildPlacedTable(e, 2, 1000, false), Column: "COLA", Selectivity: sel}
		}}, badStatement{fmt.Sprintf("star selectivity %v", sel), "outside [0, 1]", func(e *Engine) *Query {
			dim, fact := buildStarTables(e)
			l := starPlan(dim, fact, "D_ID")
			l.Root.(*plan.AggregateNode).Input.(*plan.JoinNode).Build.(*plan.FilterNode).Preds[0].Selectivity = sel
			return &Query{Plan: l}
		}})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, mode := range []string{"Submit", "SubmitBatch", "SubmitBatch without admission"} {
				t.Run(mode, func(t *testing.T) {
					e := New(topology.FourSocketIvyBridge(), 1)
					tr := e.EnableTracing(trace.Config{})
					var ctl *admit.Controller
					if mode != "SubmitBatch without admission" {
						ctl = e.EnableAdmission(admit.Config{})
					}
					good := &Query{Table: buildPlacedTable(e, 2, 1000, false), Column: "COLA",
						Selectivity: 0.1, Parallel: true, Tenant: "t"}
					q := tc.q(e)
					q.Tenant = "t"
					func() {
						defer func() {
							r := recover()
							if r == nil {
								t.Fatalf("%s accepted the statement", mode)
							}
							if msg, _ := r.(string); !strings.Contains(msg, tc.want) {
								t.Fatalf("panic %q, want it to mention %q", r, tc.want)
							}
						}()
						if mode == "Submit" {
							e.Submit(q)
						} else {
							e.SubmitBatch([]*Query{good, q})
						}
					}()
					if n := len(tr.Statements()); n != 0 {
						t.Errorf("rejected statement opened %d trace spans", n)
					}
					if ctl != nil {
						if st := ctl.Stats("t"); st.Submitted != 0 {
							t.Errorf("rejected statement reached admission: %+v", st)
						}
					}
					if n := e.ActiveStatements(); n != 0 {
						t.Errorf("%d statements active after the rejection", n)
					}
					if n := e.Sim.ActiveFlows(); n != 0 {
						t.Errorf("the rejection left %d flows started", n)
					}
				})
			}
		})
	}
}

// TestCheckDoesNotAllocate: validating a good statement is free of heap
// allocations, for plain and planned statements alike.
func TestCheckDoesNotAllocate(t *testing.T) {
	e := New(topology.FourSocketIvyBridge(), 1)
	tbl := buildPlacedTable(e, 2, 1000, false)
	dim, fact := buildStarTables(e)
	plain := &Query{Table: tbl, Column: "COLA", Selectivity: 0.1,
		ExtraPredicateColumns: []string{"COLB"}, ProjectColumns: []string{"COLB"}}
	star := &Query{Plan: starPlan(dim, fact, "D_ID")}
	for _, q := range []*Query{plain, star} {
		if n := testing.AllocsPerRun(100, func() { check(q) }); n != 0 {
			t.Errorf("check allocated %v times per statement", n)
		}
	}
}

// TestSubmitCopiesStatement: once Submit returns, a Query is its caller's
// again. A run that overwrites every statement's Query right after Submit —
// with another column, selectivity, home socket, strategy and class, and
// with other callbacks or none — must run exactly as a run that leaves them
// alone: the same fingerprint, and each statement's own OnDone fired once
// and no other callback. On the plain path a statement begins inside
// Submit, so only its callbacks are read later. On the admitted path a
// concurrency limit of one holds all but the first statement in its
// tenant's queue, so they begin after Submit has returned, and the cohort
// registry's join window makes a member's class deadline count.
func TestSubmitCopiesStatement(t *testing.T) {
	const n = 8
	for _, admitted := range []bool{false, true} {
		run := func(overwrite bool) (string, []int) {
			e := New(topology.FourSocketIvyBridge(), 1)
			tbl := buildPlacedTable(e, 2, 60_000, false)
			var ctl *admit.Controller
			if admitted {
				ctl = e.EnableAdmission(admit.Config{MinConcurrent: 1, MaxConcurrent: 1,
					OLAPDeadline: 1, InteractiveDeadline: 1e-6})
				e.EnableSharedScans(sharedscan.Config{JoinWindow: 100e-6})
			}
			fired := make([]int, n)
			for i := 0; i < n; i++ {
				q := Query{Table: tbl, Column: "COLA", Selectivity: 0.01, Parallel: true,
					Strategy: Bound, HomeSocket: i % 4, Tenant: "t",
					OnDone: func(float64) { fired[i]++ },
					OnShed: func() { t.Errorf("admitted=%v: statement %d was shed", admitted, i) }}
				e.Submit(&q)
				if !overwrite {
					continue
				}
				q = Query{Table: tbl, Column: "COLB", Selectivity: 0.9, Strategy: OSched,
					HomeSocket: 3 - i%4, Class: admit.Interactive}
				if i%2 == 0 {
					q.OnDone = func(float64) { t.Errorf("admitted=%v: statement %d reported to an overwritten OnDone", admitted, i) }
					q.OnShed = func() { t.Errorf("admitted=%v: statement %d fired an overwritten OnShed", admitted, i) }
				}
			}
			if admitted && ctl.Queued() != n-1 {
				t.Fatalf("%d statements queued, want %d", ctl.Queued(), n-1)
			}
			e.Sim.Run(0.05)
			return metrics.Fingerprint(e.Counters), fired
		}
		want, _ := run(false)
		got, fired := run(true)
		for i, f := range fired {
			if f != 1 {
				t.Errorf("admitted=%v: statement %d fired its OnDone %d times, want 1", admitted, i, f)
			}
		}
		if got != want {
			t.Errorf("admitted=%v: overwriting the Query after Submit changed the run:\n--- untouched ---\n%s--- overwritten ---\n%s", admitted, want, got)
		}
	}
}

// TestStarQueryIsAdmitted: a planned star statement takes the same
// admission path as a scan — it occupies a concurrency slot, the next one
// waits in its tenant's queue, and a statement whose wait outlives its class
// deadline is shed (OnShed fires, OnDone does not).
func TestStarQueryIsAdmitted(t *testing.T) {
	run := func(deadline float64) (done, shed int, stats admit.TenantStats) {
		e := New(topology.FourSocketIvyBridge(), 1)
		ctl := e.EnableAdmission(admit.Config{
			MinConcurrent: 1, MaxConcurrent: 1, OLAPDeadline: deadline,
		})
		dim, fact := buildStarTables(e)
		for i := 0; i < 2; i++ {
			e.Submit(&Query{
				Plan: starPlan(dim, fact, "D_ID"), Strategy: Bound, Tenant: "t",
				OnDone: func(float64) { done++ },
				OnShed: func() { shed++ },
			})
		}
		if ctl.InFlight() != 1 || ctl.Queued() != 1 {
			t.Fatalf("in flight %d, queued %d; want the first star running and the second queued",
				ctl.InFlight(), ctl.Queued())
		}
		e.Sim.Run(0.05)
		return done, shed, ctl.Stats("t")
	}
	done, shed, st := run(0)
	if done != 2 || shed != 0 || st.Completed != 2 {
		t.Fatalf("without a deadline: done %d, shed %d, %+v", done, shed, st)
	}
	if st.Wait.Max() <= 0 {
		t.Errorf("the queued star never waited: max wait %v", st.Wait.Max())
	}
	done, shed, st = run(1e-5)
	if done != 1 || shed != 1 || st.Shed != 1 {
		t.Fatalf("with a tight deadline: done %d, shed %d, %+v", done, shed, st)
	}
}

// TestStarQueryIsTraced: a planned star statement opens a trace span
// carrying its tenant and class, closed at completion.
func TestStarQueryIsTraced(t *testing.T) {
	e := New(topology.FourSocketIvyBridge(), 1)
	tr := e.EnableTracing(trace.Config{})
	dim, fact := buildStarTables(e)
	e.Submit(&Query{
		Plan: starPlan(dim, fact, "D_ID"), Strategy: Bound,
		Tenant: "t", Class: admit.Interactive,
	})
	e.Sim.Run(0.05)
	sts := tr.Statements()
	if len(sts) != 1 {
		t.Fatalf("%d trace spans, want 1", len(sts))
	}
	st := sts[0]
	if st.Tenant != "t" || st.Class != admit.Interactive.String() || st.Item != "FACT" {
		t.Errorf("span identity %q/%q/%q, want t/%s/FACT", st.Tenant, st.Class, st.Item, admit.Interactive)
	}
	if st.Done < 0 || len(st.Phases) != 4 {
		t.Errorf("span not completed through the four star phases: done %v, %d phases", st.Done, len(st.Phases))
	}
}
