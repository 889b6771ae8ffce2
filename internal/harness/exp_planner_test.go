package harness

import (
	"testing"

	"numacs/internal/core"
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
	e := runEngine(starJoinSpec(QuickScale(), false, core.Bound)).E
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
	timing := runEngine(plannerSpec(s, false))
	planned := runEngine(plannerSpec(s, true))
	if timing.QueriesDone == 0 || planned.QueriesDone == 0 {
		t.Fatalf("no statements completed (timing %d, planned %d)",
			timing.QueriesDone, planned.QueriesDone)
	}
	tc, pc := timing.E.Shared.Stats(), planned.E.Shared.Stats()
	if cohorted(pc) <= cohorted(tc) {
		t.Errorf("plan-driven cohorted statements %d <= timing-driven %d — plan-time detection added nothing",
			cohorted(pc), cohorted(tc))
	}
	if pc.PlanGrouped == 0 {
		t.Errorf("no statements entered through plan-driven groups: %+v", pc)
	}
	if tc.PlanGrouped != 0 {
		t.Errorf("timing-driven mode unexpectedly used plan groups: %+v", tc)
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
