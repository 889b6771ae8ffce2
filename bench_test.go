// Root benchmark harness: one testing.B benchmark per table and figure of
// the paper (regenerating the experiment and reporting its headline numbers
// as custom metrics), plus ablation benchmarks for the paper's design
// choices: hard-affinity queues and statement priorities (Section 5), the
// concurrency hint [28], materialization coalescing (Section 5.2), the one
// calibrated cost constant (EXPERIMENTS.md, opening paragraph), and the join
// hash-table placement (Section 8).
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// Benchmarks run each experiment at a reduced "bench" scale so the full
// suite completes in minutes; cmd/scanbench regenerates the figures at full
// scale.
package numacs_test

import (
	"testing"

	"numacs"
	"numacs/internal/core"
	"numacs/internal/harness"
)

// benchScale balances fidelity against suite runtime.
func benchScale() harness.Scale {
	return harness.Scale{
		Name: "bench", Rows: 100_000, Rows32: 100_000,
		Warmup: 0.03, Measure: 0.1,
		Step: 10e-6, Step32: 100e-6,
		Clients: []int{64, 512}, Max: 512,
	}
}

// benchExperiment reruns one paper experiment per iteration and reports the
// throughput of its headline cell.
func benchExperiment(b *testing.B, id string) {
	exp, ok := harness.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	sc := benchScale()
	var rep *harness.Report
	for i := 0; i < b.N; i++ {
		rep = exp.Run(sc)
	}
	if rep != nil && len(rep.Results) > 0 {
		best := 0.0
		for _, r := range rep.Results {
			if r.QPM > best {
				best = r.QPM
			}
		}
		b.ReportMetric(best, "best-q/min")
	}
}

func BenchmarkTable1(b *testing.B)      { benchExperiment(b, "table1") }
func BenchmarkFig1(b *testing.B)        { benchExperiment(b, "fig1") }
func BenchmarkFig8(b *testing.B)        { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)        { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)       { benchExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)       { benchExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B)       { benchExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B)       { benchExperiment(b, "fig13") }
func BenchmarkFig14(b *testing.B)       { benchExperiment(b, "fig14") }
func BenchmarkFig15(b *testing.B)       { benchExperiment(b, "fig15") }
func BenchmarkFig16(b *testing.B)       { benchExperiment(b, "fig16") }
func BenchmarkFig17(b *testing.B)       { benchExperiment(b, "fig17") }
func BenchmarkFig18(b *testing.B)       { benchExperiment(b, "fig18") }
func BenchmarkFig19(b *testing.B)       { benchExperiment(b, "fig19") }
func BenchmarkTable2(b *testing.B)      { benchExperiment(b, "table2") }
func BenchmarkPSMSize(b *testing.B)     { benchExperiment(b, "psmsize") }
func BenchmarkRepartition(b *testing.B) { benchExperiment(b, "repart") }
func BenchmarkAdaptive(b *testing.B)    { benchExperiment(b, "adaptive") }

// ---- ablation benchmarks ----------------------------------------------------

// benchCell runs one experiment cell per iteration and reports q/min.
func benchCell(b *testing.B, spec harness.Spec) {
	var r harness.Result
	for i := 0; i < b.N; i++ {
		r = harness.Run(spec)
	}
	b.ReportMetric(r.QPM, "q/min")
	b.ReportMetric(float64(r.Stolen), "stolen")
}

func skewedBoundSpec() harness.Spec {
	sc := benchScale()
	return harness.Spec{
		Machine:     harness.FourSocket,
		Placement:   harness.PlacementSpec{Kind: harness.RR},
		Strategy:    core.Bound,
		Clients:     sc.Max,
		Selectivity: 1e-5,
		Parallel:    true,
		Skew:        true,
		Warmup:      sc.Warmup, Measure: sc.Measure, Step: sc.Step,
	}
}

// BenchmarkAblationHardQueue quantifies the hard-affinity queue (the Section
// 5 claim): the same skewed memory-intensive workload under Bound (hard
// queues) vs Target (stealable affinities).
func BenchmarkAblationHardQueue(b *testing.B) {
	b.Run("bound", func(b *testing.B) { benchCell(b, skewedBoundSpec()) })
	b.Run("target", func(b *testing.B) {
		s := skewedBoundSpec()
		s.Strategy = core.Target
		benchCell(b, s)
	})
}

// BenchmarkAblationConcurrencyHint quantifies the task-granularity hint [28]
// at high concurrency.
func BenchmarkAblationConcurrencyHint(b *testing.B) {
	b.Run("hint", func(b *testing.B) {
		s := skewedBoundSpec()
		s.Skew = false
		benchCell(b, s)
	})
	b.Run("nohint", func(b *testing.B) {
		s := skewedBoundSpec()
		s.Skew = false
		s.DisableHint = true
		benchCell(b, s)
	})
}

// BenchmarkAblationPriority compares statement-timestamp priorities against
// FIFO queues; the paper's scheme tightens the latency distribution.
func BenchmarkAblationPriority(b *testing.B) {
	run := func(b *testing.B, fifo bool) {
		s := skewedBoundSpec()
		s.Skew = false
		s.Placement = harness.PlacementSpec{Kind: harness.IVP, Partitions: 4}
		s.FIFOPriority = fifo
		var r harness.Result
		for i := 0; i < b.N; i++ {
			r = harness.Run(s)
		}
		b.ReportMetric(r.QPM, "q/min")
		b.ReportMetric(r.Latency.CoeffOfVariation, "latency-cov")
	}
	b.Run("timestamp", func(b *testing.B) { run(b, false) })
	b.Run("fifo", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationCoalesce measures the output-region coalescing of the
// materialization preprocessing (Section 5.2).
func BenchmarkAblationCoalesce(b *testing.B) {
	run := func(b *testing.B, disable bool) {
		s := skewedBoundSpec()
		s.Skew = false
		s.Selectivity = 0.10 // materialization-dominated
		s.Placement = harness.PlacementSpec{Kind: harness.IVP, Partitions: 4}
		s.DisableCoalesce = disable
		benchCell(b, s)
	}
	b.Run("coalesce", func(b *testing.B) { run(b, false) })
	b.Run("nocoalesce", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationModel probes the sensitivity of the headline OS-vs-Bound
// ratio to the one deliberately calibrated constant, the unbound-worker
// streaming penalty.
func BenchmarkAblationModel(b *testing.B) {
	for _, penalty := range []float64{0.10, 0.15, 0.30, 1.0} {
		penalty := penalty
		b.Run(pname(penalty), func(b *testing.B) {
			costs := core.DefaultCosts()
			costs.UnboundStreamPenalty = penalty
			s := skewedBoundSpec()
			s.Skew = false
			s.Strategy = core.OSched
			s.Costs = &costs
			benchCell(b, s)
		})
	}
}

func pname(p float64) string {
	switch p {
	case 0.10:
		return "penalty0.10"
	case 0.15:
		return "penalty0.15-default"
	case 0.30:
		return "penalty0.30"
	default:
		return "penalty1.00-off"
	}
}

// BenchmarkAblationJoinHTPlacement probes the Section 8 join extension: a
// hash table partitioned across the build sockets vs centralized on one.
func BenchmarkAblationJoinHTPlacement(b *testing.B) {
	run := func(b *testing.B, htSockets []int) {
		var completed int
		for i := 0; i < b.N; i++ {
			e := numacs.NewEngineWithStep(numacs.FourSocketIvyBridge(), 1, 10e-6)
			build := numacs.BuildColumn("DIM", seq(30_000, 10_000), false)
			probe := numacs.BuildColumn("FACT", seq(120_000, 10_000), false)
			e.Placer.PlaceIVP(build, []int{0, 1, 2, 3})
			e.Placer.PlaceIVP(probe, []int{0, 1, 2, 3})
			completed = 0
			inflight := 0
			var issue func()
			issue = func() {
				if inflight >= 32 {
					return
				}
				inflight++
				numacs.ExecuteJoin(e, numacs.JoinSpec{
					Build: build, Probe: probe, Strategy: numacs.Bound,
					HTSockets: htSockets, HitsPerProbeRow: 1,
					OnDone: func(float64) { completed++; inflight--; issue() },
				})
			}
			for j := 0; j < 32; j++ {
				issue()
			}
			e.Sim.Run(0.2)
		}
		b.ReportMetric(float64(completed)/0.2*60, "joins/min")
	}
	b.Run("centralized", func(b *testing.B) { run(b, []int{0}) })
	b.Run("partitioned", func(b *testing.B) { run(b, []int{0, 1, 2, 3}) })
}

// ---- microbenchmarks of the functional kernels -------------------------------

func BenchmarkScanKernel(b *testing.B) {
	col := numacs.BuildColumn("c", seq(1_000_000, 1<<20), false)
	lo, hi, _ := col.EncodePredicate(1000, 1<<19)
	b.SetBytes(col.IVBytes())
	b.ResetTimer()
	var out []uint32
	for i := 0; i < b.N; i++ {
		out = col.ScanPositions(lo, hi, 0, col.Rows, out[:0])
	}
}

func BenchmarkIndexLookupKernel(b *testing.B) {
	col := numacs.BuildColumn("c", seq(1_000_000, 1<<16), true)
	lo, hi, _ := col.EncodePredicate(100, 110)
	b.ResetTimer()
	var out []uint32
	for i := 0; i < b.N; i++ {
		out = col.IndexLookupPositions(lo, hi, out[:0])
	}
}

func BenchmarkMaterializeKernel(b *testing.B) {
	col := numacs.BuildColumn("c", seq(1_000_000, 1<<16), false)
	lo, hi, _ := col.EncodePredicate(0, 1<<12)
	positions := col.ScanPositions(lo, hi, 0, col.Rows, nil)
	out := make([]int64, len(positions))
	b.SetBytes(int64(len(positions)) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col.Materialize(positions, out)
	}
}

func seq(n int, mod int64) []int64 {
	vals := make([]int64, n)
	s := uint64(12345)
	for i := range vals {
		s = s*6364136223846793005 + 1442695040888963407
		vals[i] = int64(s>>33) % mod
	}
	return vals
}
