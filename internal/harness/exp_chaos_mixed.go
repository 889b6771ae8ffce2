package harness

import (
	"fmt"
	"math/rand"

	"numacs/internal/admit"
	"numacs/internal/colstore"
	"numacs/internal/core"
	"numacs/internal/delta"
	"numacs/internal/sharedscan"
	"numacs/internal/sim"
	"numacs/internal/workload"
)

// Workload-shaped chaos scenarios: the fault is adversarial traffic rather
// than broken hardware — an antagonist tenant thrashing column heat to
// defeat replication, a write storm racing background merges under shared
// scans, and arrival bursts aimed at the shared-scan join window. The
// control runs carry the same tenants with the adversarial behaviour turned
// off, so the degradation invariants compare like against like.

// chaosAdmissionConfig is the admission contract the multi-tenant chaos
// scenarios run under (mirrors the admission experiment's tuning).
func chaosAdmissionConfig(s Scale, tenants []admit.TenantSpec) *admit.Config {
	return &admit.Config{
		Tenants:             tenants,
		MinConcurrent:       4,
		HighQueuePerWorker:  0.5,
		LowQueuePerWorker:   0.25,
		OLAPDeadline:        s.Measure / 10,
		InteractiveDeadline: s.Measure / 40,
	}
}

// ---- chaos-antagonist: heat thrashing vs the replication lever -------------

const (
	chaosVictimTenant     = "victim"
	chaosAntagonistTenant = "antagonist"
)

// rotatingHotChoice concentrates picks on a hot column that changes every
// window — the heat-thrashing antagonist. By the time the adaptive placer
// has observed a column as hot and replicated it, the antagonist has already
// moved on, so every replica decision is stale on arrival. Its clock is the
// engine's, wired by the scenario's Setup.
type rotatingHotChoice struct {
	clock  *sim.Engine
	window float64
	p      float64
}

// Pick implements workload.Chooser.
func (r *rotatingHotChoice) Pick(rng *rand.Rand, columns int) int {
	if rng.Float64() < r.p {
		return 1 + int(r.clock.Now()/r.window)%(columns-1)
	}
	return rng.Intn(columns)
}

// chaosAntagonistSpec is the heat-thrashing scenario: a victim tenant
// scanning one fixed column and an antagonist tenant three times its size,
// both under weighted-fair admission with the adaptive placer running. In
// the control the antagonist's heat is steady (a fixed hot column the placer
// can serve with replicas); faulted, its hot column rotates every window to
// defeat replication. The invariants are about the victim: admission must
// preserve its goodput and latency even while the placer's read-hot signal
// is being poisoned, and the placer's action churn must stay bounded.
func chaosAntagonistSpec(s Scale, faulted bool) Spec {
	sp := chaosSpec(s, "steady antagonist (control)")
	sp.Placer = chaosPlacer(sp)
	sp.Admission = chaosAdmissionConfig(s, []admit.TenantSpec{
		{Name: chaosVictimTenant, Weight: 1},
		{Name: chaosAntagonistTenant, Weight: 1},
	})
	var antagonist workload.Chooser = workload.HotColumnChoice{Hot: 8, P: 0.9}
	if faulted {
		rot := &rotatingHotChoice{window: sp.window(), p: 0.9}
		sp.Setup = func(e *core.Engine, _ *colstore.Table) { rot.clock = e.Sim }
		antagonist = rot
		sp.Label = "heat-thrashing antagonist"
	}
	sp.Tenants = []workload.TenantLoad{
		{Name: chaosVictimTenant, Weight: 1, Clients: 16,
			Selectivity: lowSel, Parallel: true, Strategy: core.Bound,
			Chooser: workload.FixedColumnChoice{Col: 0}},
		{Name: chaosAntagonistTenant, Weight: 1, Clients: 48,
			Selectivity: lowSel, Parallel: true, Strategy: core.Bound,
			Chooser: antagonist},
	}
	sp.TenantSeed = 5
	return sp
}

var chaosAntagonist = chaosScenario{
	id: "chaos-antagonist", title: "Chaos: antagonist tenant thrashing column heat",
	desc: "An antagonist tenant rotates its hot column every window so the adaptive " +
		"placer's replication decisions are stale on arrival; weighted-fair admission must " +
		"preserve the victim tenant's goodput and the placer's churn must stay bounded.",
	spec: chaosAntagonistSpec,
	extra: func(rep *Report, control, faulted *engineRun) {
		tt := rep.AddTable("per-tenant outcome", []string{
			"configuration", "tenant", "issued", "completed", "shed", "p50", "p99"})
		for _, r := range []*engineRun{control, faulted} {
			for _, ts := range r.Tenants.Stats() {
				tt.AddRow(r.Spec.Label, ts.Name, itoa(int(ts.Issued)), itoa(int(ts.Completed)),
					itoa(int(ts.Shed)), ms(ts.Lat.P50()), ms(ts.Lat.P99()))
			}
		}
		pa := rep.AddTable("placer churn", []string{"configuration", "actions", "replicates", "drops", "moves"})
		for _, r := range []*engineRun{control, faulted} {
			acts := r.Placer.Actions
			pa.AddRow(r.Spec.Label, itoa(len(acts)), itoa(countActions(acts, "replicate")),
				itoa(countActions(acts, "drop-replica")), itoa(countActions(acts, "move", "partition-ivp")))
		}
	},
}

// ---- chaos-writestorm: writes racing merges under shared scans -------------

// chaosWriteStormSpec is the write-storm scenario: shared scans hammer one
// column while (faulted only) a socket-0 write storm floods the same
// column's delta during the fault windows — sized to cross the merge
// threshold mid-storm, so the background merge races live cohort passes.
// The write-aware placer owns merge timing exactly as in the delta-merge
// experiment; the invariants here are that the race resolves (merges
// complete, every window makes progress) and throughput recovers once the
// storm passes.
func chaosWriteStormSpec(s Scale, faulted bool) Spec {
	sp := chaosSpec(s, "fault-free control")
	sp.Shared = &sharedscan.Config{}
	cfg := chaosPlacer(sp)
	cfg.ImbalanceRatio = 1e9        // freeze move/partition/replicate: write-path levers only
	cfg.StaleReplicaFraction = 1e-9 // no replica churn during the storm
	cfg.MergeDeltaFraction = 0.4
	cfg.MergeTrafficFraction = 0.9
	cfg.WriteHotFraction = 0.001
	sp.Placer = cfg
	if faulted {
		sp.Label = "write storm w4-w6"
		// Sized to cross the merge threshold roughly mid-storm (cf. the
		// delta-merge experiment's derivation).
		sp.Writers = &workload.WritersConfig{
			UpdateFraction: 0.8,
			Chooser:        workload.FixedColumnChoice{Col: 0},
			Sockets:        []int{0},
			Start:          float64(chaosFaultWindow) * sp.window(),
			Stop:           float64(chaosClearWindow) * sp.window(),
			Seed:           5,
		}
		sp.Setup = sizeWriters(sp.Writers, 0, cfg.MergeDeltaFraction, 1.5*sp.window())
	}
	sp.Clients, sp.Selectivity, sp.Parallel, sp.Strategy = 32, lowSel, true, core.Bound
	sp.Chooser = workload.FixedColumnChoice{Col: 0}
	sp.ClientSeed = 9
	return sp
}

// sizeWriters returns a Setup that sets the writers' rate so that column
// col's delta reaches mergeFraction of its main IV bytes after fill virtual
// seconds of the update-heavy (80%) write mix.
func sizeWriters(wc *workload.WritersConfig, col int, mergeFraction, fill float64) func(*core.Engine, *colstore.Table) {
	return func(_ *core.Engine, t *colstore.Table) {
		thresholdRows := mergeFraction * float64(t.Parts[0].Columns[col].IVBytes()) / delta.RowBytes
		wc.Rate = thresholdRows / fill / 0.8
	}
}

var chaosWriteStorm = chaosScenario{
	id: "chaos-writestorm", title: "Chaos: write storm racing background merges under shared scans",
	desc: "A socket-0 write storm floods the shared-scanned column's delta during the " +
		"fault windows, forcing a background merge to race live cohort passes; the race must " +
		"resolve without stalling and throughput must recover after the storm.",
	spec: chaosWriteStormSpec,
	extra: func(rep *Report, control, faulted *engineRun) {
		ws := rep.AddTable("write path and cohorts", []string{
			"configuration", "merges", "stmts", "passes", "merged", "attached", "wraps"})
		for _, r := range []*engineRun{control, faulted} {
			c := r.E.Shared.Stats()
			ws.AddRow(r.Spec.Label, itoa(r.E.MergesCompleted), itoa(int(c.Statements)), itoa(int(c.Passes)),
				itoa(int(c.Merged)), itoa(int(c.Attached)), itoa(int(c.Wraps)))
		}
	},
}

// ---- chaos-burst: arrival bursts at the join-window boundary ---------------

const (
	chaosSteadyTenant = "steady"
	chaosBurstTenant  = "burster"
	// chaosBurstJoinWindow pins the registry's join window so the burst
	// geometry below stays aligned with it at every scale.
	chaosBurstJoinWindow = 1e-3
)

// chaosBurstSpec is the burst-arrival scenario: a steady closed-loop tenant
// shares scans of one column while (faulted only) a burst tenant fires
// open-loop arrival spikes one join-window long at the same column — each
// spike lands inside a single cohort-forming window, the worst case for the
// join-window boundary. Admission and sharing are both on; the invariants
// are that the spikes collapse into cohorts instead of private passes, and
// the steady tenant's completion rate and tail survive.
func chaosBurstSpec(s Scale, faulted bool) Spec {
	sp := chaosSpec(s, "no bursts (control)")
	sp.Shared = &sharedscan.Config{JoinWindow: chaosBurstJoinWindow}
	sp.Admission = chaosAdmissionConfig(s, []admit.TenantSpec{
		{Name: chaosSteadyTenant, Weight: 2},
		{Name: chaosBurstTenant, Weight: 1},
	})
	burst := workload.BurstSpec{}
	if faulted {
		// Spikes of ~8 arrivals, each one join window long, every 16 join
		// windows, phase-offset so they straddle forming-cohort boundaries.
		burst = workload.BurstSpec{
			Period:   16 * chaosBurstJoinWindow,
			Duration: chaosBurstJoinWindow,
			Factor:   40,
			Phase:    2.5 * chaosBurstJoinWindow,
		}
		sp.Label = "join-window bursts"
	}
	sp.Tenants = []workload.TenantLoad{
		{Name: chaosSteadyTenant, Weight: 2, Clients: 16,
			Selectivity: lowSel, Parallel: true, Strategy: core.Bound,
			Chooser: workload.FixedColumnChoice{Col: 0}},
		{Name: chaosBurstTenant, Weight: 1, Rate: 200, Burst: burst,
			Selectivity: lowSel, Parallel: true, Strategy: core.Bound,
			Chooser: workload.FixedColumnChoice{Col: 0}},
	}
	sp.TenantSeed = 5
	return sp
}

var chaosBurst = chaosScenario{
	id: "chaos-burst", title: "Chaos: arrival bursts at the shared-scan join-window boundary",
	desc: "An open-loop tenant fires arrival spikes exactly one join window long at the " +
		"shared column; the spikes must collapse into cohorts (not a private-pass stampede) " +
		"and the steady tenant's completion rate and p99 must survive them.",
	spec: chaosBurstSpec,
	extra: func(rep *Report, control, faulted *engineRun) {
		ct := rep.AddTable("cohorts and tenants", []string{
			"configuration", "stmts", "passes", "solo", "merged", "attached", "mean cohort",
			"steady done/issued", "burster done/issued"})
		frac := func(ts workload.TenantLoadStats) string {
			if ts.Issued == 0 {
				return "-"
			}
			return fmt.Sprintf("%d/%d", ts.Completed, ts.Issued)
		}
		for _, r := range []*engineRun{control, faulted} {
			c, ts := r.E.Shared.Stats(), r.Tenants.Stats()
			mean := 0.0
			if c.Passes > 0 {
				mean = float64(c.Statements-c.Shed) / float64(c.Passes)
			}
			ct.AddRow(r.Spec.Label, itoa(int(c.Statements)), itoa(int(c.Passes)),
				itoa(int(c.Solo)), itoa(int(c.Merged)), itoa(int(c.Attached)),
				f1(mean), frac(ts[0]), frac(ts[1]))
		}
	},
}
