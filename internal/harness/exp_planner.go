package harness

import (
	"fmt"
	"strings"

	"numacs/internal/colstore"
	"numacs/internal/core"
	"numacs/internal/join"
	"numacs/internal/plan"
	"numacs/internal/sharedscan"
)

// Planner experiment: the same mixed multi-statement script — six shareable
// scans of one hot column plus two star joins — is driven by closed-loop
// clients in two submission modes. In timing mode each client submits its
// script one statement at a time (the next starts when the previous
// completes), so scan cohorts can only form when independent clients happen
// to overlap within the registry's join window or attach bound. In plan mode
// each client submits the whole script as one planned batch: core.SubmitBatch
// plans every statement, detects the six scans' common subplan by cohort key,
// and hands them to the registry as one plan-driven group — a cohort arrival
// timing alone would never assemble from a single client. The acceptance
// tests assert, at both simulator steps, that plan mode forms strictly more
// cohorted statements and at least matches timing-mode throughput.
//
// The comparison is intentionally not concurrency-matched: batch submission
// keeps a client's eight statements in flight together while timing mode
// keeps one, and the report says so — the experiment's claim is about where
// cohorts come from, with throughput as a non-regression floor, not a
// controlled speedup measurement.

// plannerClients is the closed-loop client population of the experiment.
const plannerClients = 8

// plannerScans is the number of same-column shareable scans per client script.
const plannerScans = 6

// plannerSchema is the experiment's fixture schema: a hot scanned table, two
// dimension tables of different filtered sizes (so the join-order pass has a
// real decision), and the fact table joining both.
type plannerSchema struct {
	hot, dim1, dim2, fact *colstore.Table
}

// newPlannerSchema builds and IVP-places the fixture schema for a dataset of
// the given scale rows.
func newPlannerSchema(e *core.Engine, rows int) plannerSchema {
	s := plannerSchema{
		hot: colstore.NewTable("HOT", []*colstore.Column{
			colstore.NewSynthetic("H_VAL", rows, 1<<14, false),
		}),
		dim1: colstore.NewTable("DIM1", []*colstore.Column{
			colstore.NewSynthetic("D1_DATE", rows/4, 1<<12, false),
			colstore.NewSynthetic("D1_ID", rows/4, 1<<14, false),
		}),
		dim2: colstore.NewTable("DIM2", []*colstore.Column{
			colstore.NewSynthetic("D2_REGION", rows/16, 1<<10, false),
			colstore.NewSynthetic("D2_ID", rows/16, 1<<12, false),
		}),
		fact: colstore.NewTable("FACT", []*colstore.Column{
			colstore.NewSynthetic("F_FK1", rows, 1<<14, false),
			colstore.NewSynthetic("F_FK2", rows, 1<<12, false),
		}),
	}
	sockets := []int{0, 1, 2, 3}
	for _, t := range []*colstore.Table{s.hot, s.dim1, s.dim2, s.fact} {
		for _, c := range t.Parts[0].Columns {
			e.Placer.PlaceIVP(c, sockets)
		}
	}
	return s
}

// scanQuery is one of the script's shareable hot-column scans.
func (sc plannerSchema) scanQuery(client int, sockets int, onDone func(float64)) *core.Query {
	return &core.Query{
		Table: sc.hot, Column: "H_VAL", Selectivity: lowSel,
		Parallel: true, Strategy: core.Bound,
		HomeSocket: client % sockets,
		OnDone:     onDone,
	}
}

// starOne is the script's single-dimension star statement (the shape
// join.ExecuteStar plans).
func (sc plannerSchema) starOne(client int, sockets int, onDone func(float64)) join.StarSpec {
	return join.StarSpec{
		Dim: sc.dim1, DimPredicate: "D1_DATE", DimKey: "D1_ID",
		Fact: sc.fact, FactFK: "F_FK1",
		Selectivity: 0.05, HitsPerProbeRow: 1,
		AggBytesPerRow: 12, AggCyclesPerRow: 24,
		HTSockets: []int{0}, Strategy: core.Bound,
		HomeSocket: client % sockets,
		OnDone:     onDone,
	}
}

// starTwo is the script's two-dimension star statement. The written dimension
// order is deliberately wrong — the large filtered dimension is listed first,
// so BuildStar nests the small one outermost — and the join-order pass must
// rewrite it (DIM1 est rows/80 before DIM2 est rows/160 in lowered order).
func (sc plannerSchema) starTwo() *plan.Logical {
	return plan.BuildStar(plan.StarStatement{Fact: sc.fact, AggBytesPerRow: 12, AggCyclesPerRow: 24, HTSockets: []int{0}},
		plan.StarDim{Dim: sc.dim1, Predicate: "D1_DATE", Key: "D1_ID", FactFK: "F_FK1",
			Selectivity: 0.05, HitsPerProbeRow: 1},
		plan.StarDim{Dim: sc.dim2, Predicate: "D2_REGION", Key: "D2_ID", FactFK: "F_FK2",
			Selectivity: 0.1, HitsPerProbeRow: 1})
}

// submitStarTwo submits the two-dimension star statement — a multi-join
// shape the plain Query fields cannot express — as a planned Query.
func submitStarTwo(e *core.Engine, sc plannerSchema, client int, onDone func(float64)) {
	e.Submit(&core.Query{
		Plan:     sc.starTwo(),
		Strategy: core.Bound, HomeSocket: client % e.Machine.Sockets,
		OnDone: onDone,
	})
}

// plannerSpec is the mixed script workload in one submission mode. Setup
// builds the fixture schema and starts the closed-loop script clients.
func plannerSpec(s Scale, planDriven bool) Spec {
	label := "timing-driven (statement at a time)"
	if planDriven {
		label = "plan-driven (batched scripts)"
	}
	return Spec{
		Label: label, Machine: FourSocket, Shared: &sharedscan.Config{},
		Warmup: s.Warmup, Measure: s.Measure, Step: s.Step, Seed: 1,
		Setup: func(e *core.Engine, _ *colstore.Table) {
			startPlannerScripts(e, newPlannerSchema(e, s.Rows), planDriven)
		},
	}
}

// startPlannerScripts starts the plannerClients closed-loop script clients.
func startPlannerScripts(e *core.Engine, sc plannerSchema, planDriven bool) {
	sockets := e.Machine.Sockets
	// statements per script round: the scans plus the two stars.
	perRound := plannerScans + 2
	for i := 0; i < plannerClients; i++ {
		client := i
		if planDriven {
			// Plan mode: the whole round is submitted together; the next round
			// starts when all its statements complete.
			var startRound func()
			pending := 0
			done := func(float64) {
				pending--
				if pending == 0 {
					startRound()
				}
			}
			startRound = func() {
				pending = perRound
				qs := make([]*core.Query, plannerScans)
				for j := range qs {
					qs[j] = sc.scanQuery(client, sockets, done)
				}
				e.SubmitBatch(qs)
				join.ExecuteStar(e, sc.starOne(client, sockets, done))
				submitStarTwo(e, sc, client, done)
			}
			startRound()
			continue
		}
		// Timing mode: the script runs one statement at a time; cohorts can
		// only form across clients whose statements happen to overlap.
		var issue func(k int)
		issue = func(k int) {
			next := func(float64) { issue(k + 1) }
			switch pos := k % perRound; {
			case pos < plannerScans:
				e.Submit(sc.scanQuery(client, sockets, next))
			case pos == plannerScans:
				join.ExecuteStar(e, sc.starOne(client, sockets, next))
			default:
				submitStarTwo(e, sc, client, next)
			}
		}
		issue(0)
	}
}

// cohorted counts the statements that shared another statement's pass.
func cohorted(st sharedscan.Stats) uint64 { return st.Merged + st.Attached }

// runPlanner renders the planner experiment: both submission modes side by
// side with throughput, traffic, and the cohort provenance counters.
func runPlanner(s Scale) *Report {
	rep := &Report{
		ID:    "planner",
		Title: "Plan-driven cohorts: batch planning vs arrival timing",
		Description: "Eight closed-loop clients run a mixed script (6 shared-column scans + 2 star joins) " +
			"either statement-by-statement or as planned batches. Plan mode detects the scans' common subplan " +
			"at plan time and submits them as one cohort group. Note the modes are not concurrency-matched: " +
			"a batched script keeps all its statements in flight together, so throughput is a non-regression " +
			"floor, not a controlled speedup.",
	}
	runs := []*engineRun{runEngine(plannerSpec(s, false)), runEngine(plannerSpec(s, true))}

	tb := rep.AddTable("submission modes", []string{
		"mode", "done", "q/min", "KiB/query", "p50", "p99"})
	for _, r := range runs {
		tb.AddRow(r.Spec.Label, itoa(int(r.QueriesDone)), f0(r.QPM),
			f1(bytesPerQuery(r)/1024), ms(r.Latency.P50), ms(r.Latency.P99))
	}

	ct := rep.AddTable("cohort provenance (whole run)", []string{
		"mode", "stmts", "passes", "solo", "merged", "attached", "plan-grouped", "cohorted", "mean cohort"})
	for _, r := range runs {
		c := r.E.Shared.Stats()
		ct.AddRow(r.Spec.Label, itoa(int(c.Statements)), itoa(int(c.Passes)), itoa(int(c.Solo)),
			itoa(int(c.Merged)), itoa(int(c.Attached)), itoa(int(c.PlanGrouped)),
			itoa(int(cohorted(c))), f1(r.E.Shared.MeanCohort()))
	}
	return rep
}

// explainFixtureRows sizes the EXPLAIN fixtures: fixed (quick-scale rows)
// regardless of the invocation's -scale flag, so the rendered plans — and the
// plan-golden files TestPlanGoldens compares — are identical everywhere.
const explainFixtureRows = 60_000

// explainPlanner renders the planner experiment's EXPLAIN walkthrough: the
// shareable scan (with its cohort key), the plan-driven grouping of the
// batch, and the two-dimension star with the join-order rewrite visible.
func explainPlanner() string {
	var sc plannerSchema
	e := build(Spec{Machine: FourSocket, Setup: func(e *core.Engine, _ *colstore.Table) {
		sc = newPlannerSchema(e, explainFixtureRows)
	}}).E
	stats := plan.Collect(sc.hot, sc.dim1, sc.dim2, sc.fact)

	var b strings.Builder
	b.WriteString("## statement 1 of the script: shareable hot-column scan\n")
	l := plan.BuildQuery(plan.Statement{
		Table: sc.hot, Column: "H_VAL", Selectivity: lowSel, Parallel: true,
	})
	b.WriteString(l.Explain())
	phys := plan.Optimize(l, stats, &e.Costs)
	b.WriteString(phys.Explain())
	fmt.Fprintf(&b, "## statements 2-%d share this plan: SubmitBatch detects the common subplan\n", plannerScans)
	fmt.Fprintf(&b, "## and submits all %d as ONE plan-driven cohort group on key %s\n", plannerScans, phys.ShareKey)

	b.WriteString("## star statement: two dimensions, written in the wrong order\n")
	star := sc.starTwo()
	b.WriteString(star.Explain())
	b.WriteString(plan.Optimize(star, stats, &e.Costs).Explain())
	return b.String()
}
