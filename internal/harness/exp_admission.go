package harness

import (
	"fmt"

	"numacs/internal/admit"
	"numacs/internal/core"
	"numacs/internal/workload"
)

// Admission experiment: a multi-tenant open-loop overload sweep on the
// 4-socket machine. Offered load exceeds engine capacity by >2x (a greedy
// tenant floods, a bursty tenant spikes, a well-behaved tenant stays inside
// its share, a writer tenant trickles Interactive delta batches); the
// admission-on run must keep p99 statement latency bounded by the OLAP
// deadline and per-tenant goodput near the weight shares, while the
// queues-only off run grows its backlog and its tail without bound.

// admissionTenantNames and weights of the three scan tenants (the writer
// tenant rides along as Interactive).
const (
	admAlpha  = "alpha"  // well-behaved: weight 2, offered below its share
	admBravo  = "bravo"  // bursty: weight 1, spikes to 2x its base rate
	admGreedy = "greedy" // greedy: weight 1, offers 6x its fair share
	admWriter = "writer" // Interactive delta write batches
)

// admissionDataset sizes the experiment's table: 4x the scale rows keeps
// per-statement work high enough that statement counts stay tractable under
// a 2.25x-overload open loop.
func admissionDataset(s Scale) workload.DatasetConfig {
	return workload.DatasetConfig{
		Rows: 4 * s.Rows, Columns: 16, BitcaseMin: 12, BitcaseMax: 18,
		Seed: 1, Synthetic: true,
	}
}

// admissionCapacitySpec probes the engine's statement capacity for the
// admission experiment's dataset: 64 closed-loop clients (saturating, no
// admission control), measured after warmup. The overload rates and the
// "offered >= 2x capacity" acceptance check are both expressed against its
// completions per second.
func admissionCapacitySpec(s Scale) Spec {
	return Spec{
		Machine: FourSocket, Dataset: admissionDataset(s), Placement: PlacementSpec{Kind: RR},
		Clients: 64, Selectivity: lowSel, Parallel: true, Strategy: core.Bound, ClientSeed: 9,
		Warmup: s.Warmup, Measure: s.Measure, Step: s.Step, Seed: 1,
	}
}

// admissionSpec is one admission configuration against the probed capacity:
// a 2.25x-capacity multi-tenant open-loop mix, with the admission controller
// either enabled (weighted-fair queues, elastic concurrency, deadline
// shedding) or bypassed (every statement enters the engine directly — the
// pre-admission engine).
func admissionSpec(s Scale, on bool, capacity float64) Spec {
	sp := admissionCapacitySpec(s)
	sp.Clients, sp.ClientSeed = 0, 0
	sp.Label = "queues only (admission OFF)"
	if on {
		sp.Label = "admission ON"
		sp.Admission = &admit.Config{
			Tenants: []admit.TenantSpec{
				{Name: admAlpha, Weight: 2},
				{Name: admBravo, Weight: 1},
				{Name: admGreedy, Weight: 1},
				{Name: admWriter, Weight: 1},
			},
			MinConcurrent: 4,
			// Tight watermarks: the concurrency hint already keeps task
			// fan-out proportional, so saturation shows up as a modest
			// standing queue — throttle on half a task per worker, grow
			// below a quarter.
			HighQueuePerWorker:  0.5,
			LowQueuePerWorker:   0.25,
			OLAPDeadline:        s.Measure / 10,
			InteractiveDeadline: s.Measure / 40,
		}
	}
	mk := func(name string, weight, rate float64, burst workload.BurstSpec) workload.TenantLoad {
		return workload.TenantLoad{
			Name: name, Weight: weight, Rate: rate, Burst: burst,
			Selectivity: lowSel, Parallel: true, Strategy: core.Bound,
		}
	}
	sp.Tenants = []workload.TenantLoad{
		mk(admAlpha, 2, 0.40*capacity, workload.BurstSpec{}),
		mk(admBravo, 1, 0.30*capacity, workload.BurstSpec{
			Period: s.Measure / 2, Duration: s.Measure / 8, Factor: 2, Phase: s.Measure / 4,
		}),
		mk(admGreedy, 1, 1.50*capacity, workload.BurstSpec{}),
	}
	sp.TenantSeed = 5
	// The writer tenant trickles Interactive delta batches: roughly one
	// batch every 10 simulator steps, small enough that delta growth never
	// moves the capacity baseline.
	sp.Writers = &workload.WritersConfig{Rate: 0.1 / s.Step, UpdateFraction: 0.5, Tenant: admWriter, Seed: 13}
	return sp
}

// admissionTenant is one scan tenant's measure-window outcome.
type admissionTenant struct {
	workload.TenantLoadStats
	// Weight echoes the tenant config; OfferedQPS is its mean arrival rate
	// (burst-adjusted), GoodputQPS its completions per second.
	Weight, OfferedQPS, GoodputQPS float64
}

// admissionTenants returns a run's scan-tenant outcomes, in tenant order,
// and the total offered and completed statement rates.
func admissionTenants(r *engineRun) (ts []admissionTenant, offeredQPS, completedQPS float64) {
	offered, completed := uint64(0), uint64(0)
	for i, st := range r.Tenants.Stats() {
		load := r.Spec.Tenants[i]
		at := admissionTenant{TenantLoadStats: st, Weight: load.Weight, OfferedQPS: load.Rate,
			GoodputQPS: float64(st.Completed) / r.Spec.Measure}
		if st.Name == admBravo {
			// Burst-adjusted mean offered rate: 2x for 1/4 of each period.
			at.OfferedQPS *= 1.25
		}
		ts = append(ts, at)
		offered += st.Issued
		completed += st.Completed
	}
	return ts, float64(offered) / r.Spec.Measure, float64(completed) / r.Spec.Measure
}

// runAdmission renders the admission experiment: the overload sweep with the
// controller on vs off.
func runAdmission(s Scale) *Report {
	rep := &Report{ID: "admission", Title: "Statement admission control and elastic concurrency under overload"}

	capacity := float64(Run(admissionCapacitySpec(s)).QueriesDone) / s.Measure
	off := runEngine(admissionSpec(s, false, capacity))
	on := runEngine(admissionSpec(s, true, capacity))
	runs := []*engineRun{on, off}
	onTenants, onOffered, _ := admissionTenants(on)
	deadlines := on.Spec.Admission

	cfgTab := rep.AddTable("offered load vs capacity", []string{
		"capacity(q/s)", "offered(q/s)", "overload", "OLAP deadline", "interactive deadline"})
	cfgTab.AddRow(f0(capacity), f0(onOffered),
		fmt.Sprintf("%.2fx", onOffered/capacity),
		ms(deadlines.OLAPDeadline), ms(deadlines.InteractiveDeadline))

	tb := rep.AddTable("per-tenant outcome (measure window)", []string{
		"tenant", "w", "offered(q/s)", "mode", "issued", "done", "shed",
		"goodput(q/s)", "share", "p50", "p99"})
	for i := range onTenants {
		for _, r := range runs {
			ts, _, completedQPS := admissionTenants(r)
			at := ts[i]
			mode := "off"
			if r.E.Admit != nil {
				mode = "on"
			}
			tb.AddRow(at.Name, f0(at.Weight), f0(at.OfferedQPS), mode,
				itoa(int(at.Issued)), itoa(int(at.Completed)), itoa(int(at.Shed)),
				f0(at.GoodputQPS),
				fmt.Sprintf("%.2f", at.GoodputQPS/completedQPS),
				ms(at.Lat.P50()), ms(at.Lat.P99()))
		}
	}

	tail := rep.AddTable("overall statement latency (completed statements)", []string{
		"mode", "done", "p50", "p95", "p99", "max", "p99 vs admission-on"})
	for _, r := range runs {
		l := r.Latency
		tail.AddRow(r.Spec.Label, itoa(l.N), ms(l.P50), ms(l.P95), ms(l.P99), ms(l.Max),
			fmt.Sprintf("%.1fx", l.P99/on.Latency.P99))
	}

	wr := rep.AddTable("writer tenant (Interactive class, whole run)", []string{
		"mode", "rows applied", "batches shed"})
	wr.AddRow("on", itoa(int(on.Writers.Inserts+on.Writers.Updates)), itoa(int(on.Writers.ShedBatches)))
	wr.AddRow("off", itoa(int(off.Writers.Inserts+off.Writers.Updates)), itoa(int(off.Writers.ShedBatches)))

	sat := rep.AddTable("scheduler saturation (watchdog samples, measure window)", []string{
		"mode", "mean queued tasks", "mean free workers", "max TG depth", "stmts shed"})
	onC, offC := on.E.Counters, off.E.Counters
	sat.AddRow("on", f1(onC.MeanQueuedTasks()), f1(onC.MeanFreeWorkers()), itoa(onC.SatTGMaxDepth), itoa(int(on.E.Admit.TotalShed)))
	sat.AddRow("off", f1(offC.MeanQueuedTasks()), f1(offC.MeanFreeWorkers()), itoa(offC.SatTGMaxDepth), "-")

	tr := rep.AddTable("elastic concurrency trace (admission ON)", []string{
		"t(ms)", "limit", "gran cap", "inflight", "queued stmts", "queued tasks", "free"})
	samples := on.E.Admit.Trace
	stride := len(samples)/12 + 1
	for i := 0; i < len(samples); i += stride {
		cs := samples[i]
		tr.AddRow(fmt.Sprintf("%.1f", cs.Time*1e3), itoa(cs.Limit), itoa(cs.GranCap),
			itoa(cs.InFlight), itoa(cs.QueuedStatements), itoa(cs.QueuedTasks), itoa(cs.FreeWorkers))
	}
	if len(samples) == 0 {
		tr.AddRow("-", "-", "-", "-", "-", "-", "-")
	}
	return rep
}
