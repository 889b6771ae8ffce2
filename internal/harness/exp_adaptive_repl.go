package harness

import (
	"fmt"

	"numacs/internal/adaptive"
	"numacs/internal/core"
	"numacs/internal/workload"
)

// adaptiveReplWindows is the number of virtual-time windows the experiment
// reports.
const adaptiveReplWindows = 9

// adaptiveReplSpec is one adaptive-repl configuration: a read-hot
// single-column skew of unparallelized scan statements (98% of queries hit
// one column, low selectivity, Parallel off — many small concurrent
// statements) on a block RR layout, with the Section 7 placer attached.
// This is the workload the move/partition levers cannot fix: repartitioning
// a column forces every single-task scan to stream most of the IV remotely
// (the Figure 10 effect) and moving it only relocates the hotspot, while a
// replica on every socket serves each scan locally. replicate toggles the
// lever: false caps the placer to the paper's Figure 20 moves and
// repartitioning, true adds the Section 4.2 replication placement under the
// default memory budget.
func adaptiveReplSpec(s Scale, replicate bool) Spec {
	cfg := adaptive.DefaultConfig()
	cfg.Period = s.Measure / 12
	label := "replicating"
	if !replicate {
		cfg.ReplicaBudgetBytes = 0
		label = "move/partition-only"
	}
	return Spec{
		Label: label, Machine: FourSocket,
		Dataset: workload.DatasetConfig{
			Rows: s.Rows, Columns: 16, BitcaseMin: 12, BitcaseMax: 18, Seed: 1,
		},
		// Block layout: four columns per socket; the hot column and its
		// three neighbours share socket 0.
		Placement: PlacementSpec{Kind: RR}, Skew: true,
		Placer:  &cfg,
		Clients: s.Max, Selectivity: lowSel, Parallel: false, Strategy: core.Bound,
		Chooser: workload.HotColumnChoice{Hot: 2, P: 0.98}, ClientSeed: 11,
		Warmup: s.Warmup, Measure: s.Measure, Step: s.Step, Seed: 1, Windows: adaptiveReplWindows,
	}
}

// finalTP is the mean throughput of the last third of an adaptive-repl
// run's windows, after the placer converged.
func finalTP(r Result) float64 { return meanf(r.TP[adaptiveReplWindows-adaptiveReplWindows/3:]) }

// qpiGiB returns a windowed run's QPI data traffic in GiB per window.
func qpiGiB(r Result) []float64 {
	out := make([]float64, len(r.TP))
	for w := range out {
		out[w] = r.Trace.Samples[w].Delta.LinkDataBytes / (1 << 30)
	}
	return out
}

// runAdaptiveRepl reproduces the adaptive-replication comparison: the same
// read-hot skew of unparallelized statements balanced once with
// moves/repartitioning only (the placer of Figure 20) and once with the
// replication lever enabled. The baseline's levers cannot help here —
// partitioning makes single-task scans stream remotely (Figure 10) and
// moving only relocates the hotspot — while replication serves every scan
// from a local copy on its own socket, so the replicating placer wins on
// both throughput and QPI traffic.
func runAdaptiveRepl(s Scale) *Report {
	rep := &Report{ID: "adaptive-repl", Title: "Adaptive replication of a read-hot column vs move/partition-only"}

	base := runEngine(adaptiveReplSpec(s, false))
	repl := runEngine(adaptiveReplSpec(s, true))
	runs := []*engineRun{base, repl}

	header := []string{"configuration"}
	for w := 0; w < adaptiveReplWindows; w++ {
		header = append(header, fmt.Sprintf("w%d", w+1))
	}
	tp := rep.AddTable("throughput over virtual time (q/min per window)", header)
	qpi := rep.AddTable("QPI data traffic over virtual time (GiB per window)", header)
	for _, r := range runs {
		tpRow, qpiRow := []string{r.Spec.Label}, []string{r.Spec.Label}
		for w, g := range qpiGiB(r.Result) {
			tpRow = append(tpRow, f0(r.TP[w]))
			qpiRow = append(qpiRow, fmt.Sprintf("%.2f", g))
		}
		tp.AddRow(tpRow...)
		qpi.AddRow(qpiRow...)
	}

	sum := rep.AddTable("converged comparison (last third of windows)", []string{
		"configuration", "TP(q/min)", "vs baseline", "replica KiB (peak)", "budget KiB", "pages moved", "pages copied"})
	for _, r := range runs {
		p := r.Placer
		sum.AddRow(r.Spec.Label, f0(finalTP(r.Result)), fmt.Sprintf("%.2fx", finalTP(r.Result)/finalTP(base.Result)),
			fmt.Sprintf("%d (%d)", p.ReplicaBytes()/1024, p.PeakReplicaBytes/1024),
			itoa(int(r.Spec.Placer.ReplicaBudgetBytes/1024)), itoa(int(p.PagesMoved)), itoa(int(p.PagesCopied)))
	}

	actionTable(rep, "replicating placer actions", repl.Placer.Actions, "from", "to", "parts", "KiB")
	return rep
}
