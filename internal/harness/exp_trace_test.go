package harness

import (
	"bytes"
	"encoding/json"
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
		s := QuickScale()
		e := core.NewWithStep(FourSocket.Build(), 1, 25e-6)
		table := workload.Generate(workload.DatasetConfig{
			Rows: 60_000, Columns: 16, BitcaseMin: 12, BitcaseMax: 18,
			Seed: 1, Synthetic: true,
		})
		e.Placer.PlaceRR(table)
		if traced {
			e.EnableTracing(trace.Config{SampleInterval: 0.01})
		}
		e.EnableSharedScans(sharedscan.Config{})
		e.EnableAdmission(chaosAdmissionConfig(s, []admit.TenantSpec{
			{Name: "a", Weight: 2},
			{Name: "b", Weight: 1},
		}))
		cfg := adaptive.DefaultConfig()
		cfg.Period = 0.01
		placer := adaptive.New(e, &adaptive.Catalog{Tables: []*colstore.Table{table}}, cfg)
		e.Sim.AddActor(placer)
		e.EnableChaos(chaos.Config{Schedule: []chaos.Event{
			{At: 0.04, Kind: chaos.SocketOffline, Socket: 1},
			{At: 0.06, Kind: chaos.SocketOnline, Socket: 1},
		}}, table)
		gen := workload.NewMultiTenant(e, table, workload.MultiTenantConfig{
			Tenants: []workload.TenantLoad{
				{Name: "a", Weight: 2, Clients: 32,
					Selectivity: lowSel, Parallel: true, Strategy: core.Bound,
					Chooser: workload.FixedColumnChoice{Col: 0}},
				{Name: "b", Weight: 1, Clients: 32,
					Selectivity: lowSel, Parallel: true, Strategy: core.Bound,
					Chooser: workload.HotColumnChoice{Hot: 3, P: 0.5}},
			},
			Seed: 3,
		})
		e.Sim.AddActor(gen)
		gen.Start()
		e.Sim.Run(0.08)
		return e
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
	faulted := RunChaosSocket(QuickScale(), true)
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

// TestChaosReportHasTimeline: the chaos reports carry the flight-recorder
// tables and attach the trace data for scanbench -trace / -json export.
func TestChaosReportHasTimeline(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos simulation runs")
	}
	e, ok := ByID("chaos-thermal")
	if !ok {
		t.Fatal("chaos-thermal not registered")
	}
	rep := e.Run(QuickScale())
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
