package harness

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"numacs/internal/insight"
	"numacs/internal/trace"
)

// socketRuns shares the chaos-socket control/faulted pair of each scale
// between the tests below, which run back to back: the invariants, the
// flight recorder, the rendered report and the triage analysis. The last of
// them, TestTriageChaosSocket, drops the pairs, because finished engines
// kept alive slow the garbage collection of every later simulation in the
// binary. A test run on its own simulates the pair itself.
var socketRuns = map[string][2]*engineRun{}

// socketPair returns the shared chaos-socket pair at scale s.
func socketPair(s Scale) (control, faulted *engineRun) {
	p, ok := socketRuns[s.Name]
	if !ok {
		p[0], p[1] = chaosSocket.pair(s)
		socketRuns[s.Name] = p
	}
	return p[0], p[1]
}

// checkChaosSocket asserts the socket-failure invariants at one scale.
func checkChaosSocket(t *testing.T, s Scale) {
	t.Helper()
	control, faulted := socketPair(s)
	assertProgress(t, control)
	assertProgress(t, faulted)

	injected := faulted.E.Chaos.Applied
	if len(injected) != 2 {
		t.Fatalf("injected %d faults, want offline+online", len(injected))
	}
	if injected[0].ReplicasDropped < 1 {
		t.Errorf("offline event dropped %d replicas, want >= 1 (the pre-placed socket-1 replica)",
			injected[0].ReplicasDropped)
	}
	// Losing one of four sockets costs more than a quarter of throughput
	// here: the hot column's replica on the dead socket is gone too, so its
	// scans fall back to remote service. 0.15 is the no-collapse floor at
	// both steps (measured ~0.50 at 25 us, ~0.23 at 5 us).
	if r := faulted.faultTP() / control.faultTP(); r < 0.15 {
		t.Errorf("fault-window throughput ratio %.2f < 0.15 — degradation not graceful", r)
	} else if r > 0.85 {
		t.Errorf("fault-window throughput ratio %.2f > 0.85 — the fault did not bite", r)
	}
	if r := faulted.recoveryTP() / control.recoveryTP(); r < 0.8 {
		t.Errorf("recovery throughput ratio %.2f < 0.8 — no convergence after the socket returned", r)
	}
	if faulted.Latency.P99 > 10*control.Latency.P99 {
		t.Errorf("faulted p99 %.2fms > 10x control %.2fms", faulted.Latency.P99*1e3, control.Latency.P99*1e3)
	}
	// The placer must never target the offline socket while it is down...
	faultAt := float64(chaosFaultWindow) * faulted.Window
	clearAt := float64(chaosClearWindow) * faulted.Window
	for _, a := range faulted.Placer.Actions {
		if a.Time >= faultAt && a.Time < clearAt && a.To == chaosSocketVictim {
			t.Errorf("placer action %q -> socket %d at t=%.1fms while that socket was offline",
				a.Kind, a.To, a.Time*1e3)
		}
	}
	// ...and must converge: no further re-placement churn after a grace of
	// two windows past the clear.
	for _, a := range faulted.Placer.Actions {
		if a.Time >= clearAt+2*faulted.Window {
			t.Errorf("placer still acting (%q %s) at t=%.1fms, %.1fms after the fault cleared — not converged",
				a.Kind, a.Column, a.Time*1e3, (a.Time-clearAt)*1e3)
		}
	}
}

// TestChaosSocketQuick asserts the socket-failure invariants at the quick
// scale's 25 us step.
func TestChaosSocketQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos simulation runs")
	}
	checkChaosSocket(t, QuickScale())
}

// TestChaosSocketTrace is the flight-recorder acceptance test on the
// chaos-socket scenario: the statement traces must decompose scheduler queue
// wait from execution time, the decision log must contain both the injected
// fault (with its blast radius) and the placer's re-replication to the
// returned socket (with its cause), the windowed MC time-series must exhibit
// the fault dip, and the Chrome export must parse as a non-empty JSON array.
func TestChaosSocketTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos simulation runs")
	}
	_, faulted := socketPair(QuickScale())
	tr := faulted.Trace
	if tr == nil {
		t.Fatal("faulted run recorded no trace")
	}

	// Windowed time-series: one sample per reporting window, and the fault
	// windows' memory throughput dips visibly below the healthy baseline.
	if len(tr.Samples) != chaosWindows {
		t.Fatalf("recorded %d samples, want %d", len(tr.Samples), chaosWindows)
	}
	baseline, fault := 0.0, 0.0
	for w := 0; w < chaosFaultWindow; w++ {
		baseline += tr.Samples[w].TotalMCGiBs()
	}
	baseline /= chaosFaultWindow
	for w := chaosFaultWindow; w < chaosClearWindow; w++ {
		fault += tr.Samples[w].TotalMCGiBs()
	}
	fault /= chaosClearWindow - chaosFaultWindow
	if fault >= 0.85*baseline {
		t.Errorf("fault-window MC %.1f GiB/s >= 0.85x baseline %.1f — the dip is not in the series", fault, baseline)
	}
	// The per-window completion deltas in the series are exactly the run's
	// progress counters (they are derived from the same samples).
	for w, smp := range tr.Samples {
		if smp.Delta.QueriesDone != faulted.Done[w] {
			t.Errorf("window %d: sample delta %d != run.Done %d", w+1, smp.Delta.QueriesDone, faulted.Done[w])
		}
	}

	// Statement traces: completed statements must decompose into scheduler
	// queue wait and execution time (chaos-socket runs no admission, so the
	// queue wait here is the scheduler's, not the controller's).
	nDone, nSchedWait, nExec := 0, 0, 0
	for _, s := range tr.Statements {
		if s.Done >= 0 {
			nDone++
			if s.Done < s.Submitted {
				t.Fatalf("statement %d done %.6f before submitted %.6f", s.ID, s.Done, s.Submitted)
			}
		}
		if s.SchedulerWait() > 0 {
			nSchedWait++
		}
		if s.ExecSeconds() > 0 {
			nExec++
		}
	}
	if nDone == 0 || nExec == 0 {
		t.Fatalf("no completed/executing statements traced: done %d, exec %d of %d", nDone, nExec, len(tr.Statements))
	}
	if nSchedWait == 0 {
		t.Error("no statement shows scheduler queue wait — the first-task hook is not firing")
	}

	// Decision log: the injected fault with its blast radius, and — after the
	// socket returns — the placer re-earning the dropped replica, with cause.
	var sawOffline, sawReplicateBack bool
	clearAt := float64(chaosClearWindow) * faulted.Window
	for _, d := range tr.Decisions {
		if d.Source == "chaos" && d.Kind == "socket-offline" {
			sawOffline = true
			if d.Cause == "" {
				t.Error("chaos socket-offline decision has no cause")
			}
		}
		if d.Source == "placer" && d.Kind == "replicate" &&
			d.Time >= clearAt && d.To == chaosSocketVictim {
			sawReplicateBack = true
			if d.Cause == "" {
				t.Error("placer replicate decision has no cause")
			}
		}
	}
	if !sawOffline {
		t.Error("decision log misses the injected socket-offline fault")
	}
	if !sawReplicateBack {
		t.Errorf("decision log misses the placer's re-replication to socket %d after the fault cleared", chaosSocketVictim)
	}

	// Chrome export: a valid, non-empty JSON array.
	var buf bytes.Buffer
	if err := trace.ExportChrome(&buf, tr); err != nil {
		t.Fatalf("ExportChrome: %v", err)
	}
	var evs []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("Chrome export is not a JSON array: %v", err)
	}
	if len(evs) == 0 {
		t.Fatal("Chrome export is empty")
	}
}

// TestChaosReportHasTriage: the chaos reports attach the structured triage
// report and render its tables, so scanbench -triage and the CI artifact
// pipeline get it without re-analyzing.
func TestChaosReportHasTriage(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos simulation runs")
	}
	rep := chaosSocket.render(socketPair(QuickScale()))
	if rep.Triage == nil {
		t.Fatal("report has no triage attached")
	}
	if rep.Triage.Meta.RunID != rep.ID {
		t.Errorf("triage run id %q, want %q", rep.Triage.Meta.RunID, rep.ID)
	}
	var sawIncidents, sawVerdicts bool
	for _, tb := range rep.Tables {
		switch tb.Name {
		case "auto-triage: incidents (faulted run)":
			sawIncidents = true
			if len(tb.Rows) == 0 {
				t.Error("incident table is empty (want rows or the (none) placeholder)")
			}
		case "auto-triage: SLO verdicts (faulted run)":
			sawVerdicts = true
			if len(tb.Rows) == 0 {
				t.Error("verdict table is empty")
			}
		}
	}
	if !sawIncidents || !sawVerdicts {
		t.Fatalf("auto-triage tables missing: incidents %v, verdicts %v", sawIncidents, sawVerdicts)
	}
}

// TestChaosSocketFull asserts them at the full scale's 5 us step, where
// dispatch quantization is 5x finer.
func TestChaosSocketFull(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos simulation runs at full scale")
	}
	checkChaosSocket(t, FullScale())
}

// TestTriageChaosSocket is the insight layer's acceptance test on the
// chaos-socket scenario, at both simulator scales. On the traced faulted
// run the triage report must contain a memory-throughput dip incident inside
// the fault windows whose suspect set includes the injected socket-offline
// fault, and a recovery incident attributed to the placer's post-clear
// re-replication. On the fault-free control the very same analyzer and SLO
// spec must report zero incidents and no failed verdicts — the detector's
// floors are tuned so healthy noise never alarms.
func TestTriageChaosSocket(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos simulation runs")
	}
	t.Cleanup(func() { clear(socketRuns) })
	scales := []Scale{QuickScale(), FullScale()}
	for _, s := range scales {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			control, faulted := socketPair(s)
			spec := chaosSLOs(faulted.Window)

			tri := insight.Analyze(faulted.Trace, spec)
			if tri.Statements == 0 || tri.Windows != chaosWindows {
				t.Fatalf("triage saw %d statements, %d windows (want %d windows)",
					tri.Statements, tri.Windows, chaosWindows)
			}

			// The MC-throughput dip: an incident on an mc-* series whose span
			// intersects the fault windows, with the injected socket-offline
			// in its suspect set.
			clearAt := float64(chaosClearWindow) * faulted.Window
			var sawDip, sawRecovery bool
			for _, in := range tri.Incidents {
				if !strings.HasPrefix(in.Series, "mc-") {
					continue
				}
				if in.Direction == insight.Dip &&
					in.FirstWindow <= chaosClearWindow-1 && in.LastWindow >= chaosFaultWindow {
					for _, d := range in.SuspectDecisions {
						if d.Source == "chaos" && d.Kind == "socket-offline" {
							sawDip = true
						}
					}
				}
				if in.Direction == insight.Spike && in.FirstWindow >= chaosClearWindow {
					for _, d := range in.SuspectDecisions {
						if d.Source == "placer" && d.Kind == "replicate" &&
							d.To == chaosSocketVictim && d.Time >= clearAt {
							sawRecovery = true
						}
					}
				}
			}
			if !sawDip {
				t.Errorf("no MC dip incident with the injected socket-offline in its suspects; incidents: %v", tri.Incidents)
			}
			if !sawRecovery {
				t.Errorf("no MC recovery spike attributed to the placer's re-replication to socket %d; incidents: %v",
					chaosSocketVictim, tri.Incidents)
			}

			// The fault must also be visible to the SLO layer on the faulted
			// run as failed or skipped-nothing — at minimum the verdicts exist.
			if len(tri.Verdicts) == 0 {
				t.Error("faulted triage evaluated no SLO verdicts")
			}

			// Control: the same analyzer and spec find a healthy run — zero
			// incidents, zero failed verdicts.
			ctl := insight.Analyze(control.Trace, spec)
			if len(ctl.Incidents) != 0 {
				t.Errorf("control run reports %d incidents, want 0: %v", len(ctl.Incidents), ctl.Incidents)
			}
			if n := ctl.FailedVerdicts(); n != 0 {
				t.Errorf("control run fails %d SLO verdicts, want 0: %+v", n, ctl.Verdicts)
			}
		})
	}
}
