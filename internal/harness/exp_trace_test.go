package harness

import (
	"testing"

	"numacs/internal/adaptive"
	"numacs/internal/admit"
	"numacs/internal/chaos"
	"numacs/internal/colstore"
	"numacs/internal/core"
	"numacs/internal/sharedscan"
	"numacs/internal/trace"
	"numacs/internal/workload"
)

// TestTraceDisabledBitIdentical pins the flight recorder's zero-cost-when-
// disabled guarantee: an engine with tracing enabled (statement spans,
// decision log, AND the sampler actor) must equal the untraced engine on
// every counter and the full latency distribution, bit for bit. The scenario
// deliberately stacks admission, shared scans, the adaptive placer, and a
// real chaos fault so every hook site fires during the traced run — tracing
// is passive (it records timestamps and counters, starts no flows), so even
// a busy recorder must not perturb a single allocation, dispatch, or RNG
// draw.
func TestTraceDisabledBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("fixed-seed simulation runs")
	}
	run := func(traced bool) *core.Engine {
		spec := bypassBase
		spec.Shared = &sharedscan.Config{}
		spec.Admission = chaosAdmissionConfig(QuickScale(), []admit.TenantSpec{
			{Name: "a", Weight: 2},
			{Name: "b", Weight: 1},
		})
		placer := adaptive.DefaultConfig()
		placer.Period = 0.01
		spec.Placer = &placer
		spec.Faults = []chaos.Event{
			{At: 0.04, Kind: chaos.SocketOffline, Socket: 1},
			{At: 0.06, Kind: chaos.SocketOnline, Socket: 1},
		}
		spec.Tenants = []workload.TenantLoad{
			{Name: "a", Weight: 2, Clients: 32,
				Selectivity: lowSel, Parallel: true, Strategy: core.Bound,
				Chooser: workload.FixedColumnChoice{Col: 0}},
			{Name: "b", Weight: 1, Clients: 32,
				Selectivity: lowSel, Parallel: true, Strategy: core.Bound,
				Chooser: workload.HotColumnChoice{Hot: 3, P: 0.5}},
		}
		spec.TenantSeed = 3
		if traced {
			// Spec traces only a run with reporting windows.
			spec.Setup = func(e *core.Engine, _ *colstore.Table) {
				e.EnableTracing(trace.Config{SampleInterval: 0.01})
			}
		}
		return runBypass(spec)
	}
	plain := run(false)
	traced := run(true)

	// The traced run must actually have recorded — a vacuous recorder would
	// make the equality below meaningless.
	data := traced.Trace.Data()
	if len(data.Statements) == 0 || len(data.Decisions) == 0 || len(data.Samples) == 0 {
		t.Fatalf("recorder stayed empty: %d statements, %d decisions, %d samples",
			len(data.Statements), len(data.Decisions), len(data.Samples))
	}

	assertSameRun(t, plain.Counters, traced.Counters)
}

// TestChaosReportHasTimeline: the chaos reports carry the flight-recorder
// tables and attach the trace data for scanbench -trace / -json export.
func TestChaosReportHasTimeline(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos simulation runs")
	}
	rep := mustRun(t, "chaos-thermal")
	if rep.Trace == nil {
		t.Fatal("report has no trace data attached")
	}
	var sawSeries, sawDecisions bool
	for _, tb := range rep.Tables {
		switch tb.Name {
		case "flight recorder: faulted-run time-series":
			sawSeries = true
			if len(tb.Rows) != chaosWindows {
				t.Errorf("time-series table has %d rows, want %d", len(tb.Rows), chaosWindows)
			}
		case "flight recorder: faulted-run decisions":
			sawDecisions = true
			if len(tb.Rows) == 0 {
				t.Error("decision table is empty")
			}
		}
	}
	if !sawSeries || !sawDecisions {
		t.Fatalf("flight-recorder tables missing: series %v, decisions %v", sawSeries, sawDecisions)
	}
}
