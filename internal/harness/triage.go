package harness

import (
	"fmt"
	"strings"

	"numacs/internal/insight"
)

// chaosSLOs is the declarative objective set every chaos scenario is judged
// against: whole-run p99 latency bounded by a multiple of the reporting
// window (generous enough that a graceful degradation passes, tight enough
// that a collapse fails), every tenant above half its even completion share
// (skipped automatically by the analyzer on single-tenant scenarios), and
// the no-livelock floor of at least one completion per window.
func chaosSLOs(window float64) insight.SLOSpec {
	return insight.SLOSpec{
		Latency: []insight.LatencyTarget{
			{Class: "", Percentile: 99, Target: 2 * window},
		},
		FairnessFloor: 0.5,
		MinWindowDone: 1,
	}
}

// autoTriage analyzes the faulted run's flight-recorder data against the
// chaos SLOs, attaches the structured report for scanbench -triage / -json,
// and renders its tables into the experiment report — incidents with their
// suspect decisions, SLO verdicts, and the per-group blame decomposition.
func autoTriage(rep *Report, faulted Result) {
	faulted.Trace.Meta.RunID = rep.ID
	tri := insight.Analyze(faulted.Trace, chaosSLOs(faulted.Window))
	rep.Triage = tri

	inc := rep.AddTable("auto-triage: incidents (faulted run)", []string{
		"series", "dir", "windows", "baseline", "value", "change", "z", "suspects"})
	if len(tri.Incidents) == 0 {
		inc.AddRow("(none)", "-", "-", "-", "-", "-", "-", "-")
	}
	for _, in := range tri.Incidents {
		sus := "UNEXPLAINED"
		if !in.Unexplained {
			var parts []string
			for _, d := range in.SuspectDecisions {
				parts = append(parts, fmt.Sprintf("%s:%s@%.1fms", d.Source, d.Kind, d.Time*1e3))
			}
			sus = strings.Join(parts, " ")
		}
		inc.AddRow(in.Series, in.Direction,
			fmt.Sprintf("w%d-w%d", in.FirstWindow+1, in.LastWindow+1),
			f1(in.Baseline), f1(in.Value), pct(in.Magnitude),
			f1(in.Z), sus)
	}

	sv := rep.AddTable("auto-triage: SLO verdicts (faulted run)", []string{
		"objective", "status", "measured", "target", "evidence"})
	for _, v := range tri.Verdicts {
		status := v.Status
		if v.Status == insight.VerdictFail {
			status = "FAIL"
		}
		sv.AddRow(v.Name, status, fmt.Sprintf("%.4g", v.Measured), fmt.Sprintf("%.4g", v.Target), v.Evidence)
	}

	bl := rep.AddTable("auto-triage: blame by tenant (faulted run)", []string{
		"tenant", "done", "shed", "p50", "p99", "tail blame"})
	for _, row := range tri.ByTenant {
		bl.AddRow(row.Group, itoa(row.Count), itoa(row.Shed),
			ms(row.P50), ms(row.P99), row.Tail.String())
	}
}
