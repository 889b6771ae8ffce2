package harness

import (
	"testing"

	"numacs/internal/colstore"
	"numacs/internal/core"
	"numacs/internal/join"
)

// TestStarJoinPlannerBitIdentical pins the planner's lowering contract on
// the starjoin experiment's fixed-seed scenario: ExecuteStar — a planned
// Query through Engine.Submit, optimized with live stats — must match, on
// every counter and the full latency histogram, the fingerprint the
// pre-planner hand-wired star pipeline (scan, build, probe, aggregate wired
// directly) produced on the same scenario.
func TestStarJoinPlannerBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("fixed-seed simulation runs")
	}
	s := QuickScale()
	e := core.NewWithStep(FourSocket.Build(), 1, s.Step)
	sockets := []int{0, 1, 2, 3}
	dim := colstore.NewTable("DIM", []*colstore.Column{
		colstore.NewSynthetic("D_DATE", s.Rows/4, 1<<12, false),
		colstore.NewSynthetic("D_ID", s.Rows/4, 1<<14, false),
	})
	fact := colstore.NewTable("FACT", []*colstore.Column{
		colstore.NewSynthetic("F_FK", s.Rows, 1<<14, false),
	})
	for _, c := range dim.Parts[0].Columns {
		e.Placer.PlaceIVP(c, sockets)
	}
	e.Placer.PlaceIVP(fact.Parts[0].Columns[0], sockets)

	var issue func(client int)
	issue = func(client int) {
		join.ExecuteStar(e, join.StarSpec{
			Dim: dim, DimPredicate: "D_DATE", DimKey: "D_ID",
			Fact: fact, FactFK: "F_FK",
			Selectivity: 0.05, HitsPerProbeRow: 1,
			AggBytesPerRow: 12, AggCyclesPerRow: 24,
			HTSockets: []int{0}, Strategy: core.Bound,
			HomeSocket: client % e.Machine.Sockets,
			OnDone:     func(float64) { issue(client) },
		})
	}
	for i := 0; i < 32; i++ {
		issue(i)
	}
	e.Sim.Run(s.Warmup)
	e.Counters.Reset()
	e.Sim.Run(s.Warmup + s.Measure)
	if e.Counters.QueriesDone == 0 {
		t.Fatal("no statements completed")
	}
	assertFingerprintFile(t, "starjoin", e.Counters)
}

// checkPlannerCriteria asserts the planner experiment's acceptance criteria
// at one simulator scale: plan-driven submission must form strictly more
// cohorted statements than timing-driven submission — and some of them must
// come through plan groups — while at least matching its throughput.
func checkPlannerCriteria(t *testing.T, s Scale) {
	t.Helper()
	timing := RunPlanner(s, false)
	planned := RunPlanner(s, true)
	if timing.QueriesDone == 0 || planned.QueriesDone == 0 {
		t.Fatalf("no statements completed (timing %d, planned %d)",
			timing.QueriesDone, planned.QueriesDone)
	}
	if planned.CohortedStatements <= timing.CohortedStatements {
		t.Errorf("plan-driven cohorted statements %d <= timing-driven %d — plan-time detection added nothing",
			planned.CohortedStatements, timing.CohortedStatements)
	}
	if planned.Cohorts.PlanGrouped == 0 {
		t.Errorf("no statements entered through plan-driven groups: %+v", planned.Cohorts)
	}
	if timing.Cohorts.PlanGrouped != 0 {
		t.Errorf("timing-driven mode unexpectedly used plan groups: %+v", timing.Cohorts)
	}
	if planned.QPM < timing.QPM {
		t.Errorf("plan-driven throughput %.0f q/min < timing-driven %.0f", planned.QPM, timing.QPM)
	}
}

// TestPlannerCohortsQuick asserts the criteria at the quick scale's 25 us
// simulator step.
func TestPlannerCohortsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("planner simulation runs")
	}
	checkPlannerCriteria(t, QuickScale())
}

// TestPlannerCohortsFull asserts the criteria at the full scale's 5 us
// simulator step (step-size robustness: quantization must not be what forms
// the extra cohorts).
func TestPlannerCohortsFull(t *testing.T) {
	if testing.Short() {
		t.Skip("planner simulation runs at full scale")
	}
	checkPlannerCriteria(t, FullScale())
}
