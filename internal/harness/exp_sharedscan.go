package harness

import (
	"fmt"

	"numacs/internal/core"
	"numacs/internal/sharedscan"
	"numacs/internal/workload"
)

// Shared-scan experiment: N closed-loop clients hammer ONE read-hot column
// of the 4-socket machine (the same-column hot-scan mix), with the cohort
// layer either enabled or bypassed. Unshared, every statement pays a full
// memory pass over the column, so the serving socket's memory controller
// saturates long before the cores; shared, concurrent statements merge into
// cohorts that stream the column once per pass and evaluate every member
// predicate per chunk. The headline criteria — asserted by the acceptance
// tests at BOTH the 25 µs and 5 µs simulator steps — are >=2x statement
// throughput at >=8 concurrent same-column scans and <=0.5x physical MC
// bytes per statement: the win must be memory traffic, not a coarse-step
// equilibrium artifact.

// sharedScanDataset sizes the experiment table: 8x the scale rows makes a
// private pass heavy enough that the unshared control saturates the serving
// socket's memory controller within the sweep — the paper's MC-bound
// regime, where sharing is the lever.
func sharedScanDataset(s Scale) workload.DatasetConfig {
	return workload.DatasetConfig{
		Rows: 8 * s.Rows, Columns: 16, BitcaseMin: 12, BitcaseMax: 18,
		Seed: 1, Synthetic: true,
	}
}

// sharedScanSpec is one shared-scan configuration: clients closed-loop
// scanners of column COL000 on the RR-placed table, cohort layer on or off.
func sharedScanSpec(s Scale, on bool, clients int) Spec {
	sp := Spec{
		Label: "private passes (sharing OFF)", Machine: FourSocket,
		Dataset: sharedScanDataset(s), Placement: PlacementSpec{Kind: RR},
		Clients: clients, Selectivity: lowSel, Parallel: true, Strategy: core.Bound,
		Chooser: workload.FixedColumnChoice{Col: 0}, ClientSeed: 9,
		Warmup: s.Warmup, Measure: s.Measure, Step: s.Step, Seed: 1,
	}
	if on {
		sp.Label = "shared cohorts (sharing ON)"
		sp.Shared = &sharedscan.Config{}
	}
	return sp
}

// bytesPerQuery is a run's physical MC traffic per completed statement in
// the measure window — the "one memory pass for N scans" criterion.
func bytesPerQuery(r *engineRun) float64 {
	if r.QueriesDone == 0 {
		return 0
	}
	return r.E.Counters.TotalMCBytes() / float64(r.QueriesDone)
}

// runSharedScan renders the shared-scan experiment: a concurrency sweep of
// the same-column hot-scan mix with the cohort layer on vs off.
func runSharedScan(s Scale) *Report {
	rep := &Report{
		ID:    "shared-scan",
		Title: "Shared scan cohorts: one memory pass for N concurrent scans",
		Description: "Closed-loop clients all scanning one column; cohort layer on vs off. " +
			"Sharing must cut physical MC bytes per statement, not just rebalance them.",
	}

	sweep := []int{1, 8, 16, 32}
	var runs []*engineRun
	for _, n := range sweep {
		runs = append(runs, runEngine(sharedScanSpec(s, false, n)), runEngine(sharedScanSpec(s, true, n)))
	}

	tb := rep.AddTable("throughput and physical traffic vs concurrency", []string{
		"clients", "mode", "done", "q/min", "speedup", "MC GiB", "KiB/query", "bytes ratio", "QPI(GiB)", "p50", "p99"})
	for i := 0; i < len(runs); i += 2 {
		off := runs[i]
		for _, r := range runs[i : i+2] {
			mode := "off"
			speedup, ratio := "1.00x", "1.00"
			if r.E.Shared != nil {
				mode = "on"
				speedup = fmt.Sprintf("%.2fx", r.QPM/off.QPM)
				ratio = fmt.Sprintf("%.2f", bytesPerQuery(r)/bytesPerQuery(off))
			}
			tb.AddRow(itoa(r.Spec.Clients), mode, itoa(int(r.QueriesDone)), f0(r.QPM), speedup,
				f2(r.E.Counters.TotalMCBytes()/(1<<30)), f1(bytesPerQuery(r)/1024), ratio,
				f2(r.QPIDataGiB), ms(r.Latency.P50), ms(r.Latency.P99))
		}
	}

	ct := rep.AddTable("cohort lifecycle (sharing ON, whole run)", []string{
		"clients", "stmts", "passes", "solo", "merged", "attached", "wraps", "shed", "mean cohort"})
	for i := 1; i < len(runs); i += 2 {
		r, c := runs[i], runs[i].E.Shared.Stats()
		ct.AddRow(itoa(r.Spec.Clients), itoa(int(c.Statements)), itoa(int(c.Passes)),
			itoa(int(c.Solo)), itoa(int(c.Merged)), itoa(int(c.Attached)),
			itoa(int(c.Wraps)), itoa(int(c.Shed)), f1(r.E.Shared.MeanCohort()))
	}
	return rep
}
